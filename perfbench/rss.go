package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// rssEvery is the resident-memory sampling period.
const rssEvery = 50 * time.Millisecond

// rssSampler records a process's resident set size while a workload
// runs. The high-water mark (VmHWM) of a garbage-collected process, and
// a high percentile of the samples too, depend on when collections
// happen to fall; the mean of regular samples measures the memory the
// workload holds, not a few unlucky instants.
type rssSampler struct {
	pid     int
	stop    chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

// sampleRSS starts sampling pid (0 = this process) until Stop.
func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			v, err := procStatusMB(s.pid, "VmRSS:")
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, v)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the mean of the samples and the
// process's high-water mark.
func (s *rssSampler) Stop() (avg, peak float64, err error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, 0, s.err
	}
	peak, err = procStatusMB(s.pid, "VmHWM:")
	return mean(s.samples), peak, err
}

// procStatusMB reads one kB field of /proc/<pid>/status (pid 0 = this
// process) in MiB.
func procStatusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == field && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s line in %s", field, path)
}
