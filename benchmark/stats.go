package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the Harrell–Davis estimate of the q-quantile of xs: a
// weighted mean of all the order statistics, the i-th of n weighted by the
// mass a Beta(q(n+1), (1-q)(n+1)) distribution puts on ((i-1)/n, i/n].
// A single order statistic jumps from one sample to the next as samples
// pass one another; this estimate moves smoothly, which matters for a
// percentile of a few unlike inputs (solve-giant's eleven cold opens). On
// large samples it agrees with the usual order statistic. xs need not be
// sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	cdf := func(i int) float64 { return incBeta(a, b, float64(i)/float64(n)) }
	// The weights vanish away from q·n; sum only where they do not.
	const eps = 1e-15
	lo := sort.Search(n+1, func(i int) bool { return cdf(i) > eps }) - 1
	hi := sort.Search(n+1, func(i int) bool { return cdf(i) >= 1-eps })
	first := cdf(lo)
	prev, sum := first, 0.0
	for i := lo + 1; i <= hi; i++ {
		c := cdf(i)
		sum += (c - prev) * s[i-1]
		prev = c
	}
	return sum / (prev - first)
}

// incBeta is the regularized incomplete beta function I_x(a, b), by its
// continued fraction (Numerical Recipes, 2nd ed., §6.4).
func incBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of incBeta by Lentz's method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 1e5; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// supportedPercentile is the highest of a few conventional percentiles
// that has at least ten samples beyond it, or 0 when even the median has
// fewer than ten samples above it.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS restarts the process's resident-set high-water mark at its
// current resident set, so that peakRSSMB covers what follows (Linux 4.0
// and later; elsewhere the mark keeps counting from process start).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status; off Linux it falls back to the Go runtime's total
// mapped memory.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealSeconds is the machine-wide steal time from /proc/stat (the 8th
// counter of the cpu line, in USER_HZ ticks of 1/100 s), or 0 off Linux.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64) // a malformed counter reads as 0
	return v / 100
}

// heapAllocs returns the cumulative count of heap objects the process has
// allocated. It reads runtime/metrics, which does not stop the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// cpuReferenceMS times a fixed integer loop (xorshift64, 2^26 steps). It
// is printed with every run so that figures from different machines can be
// put on one scale; it is not a metric.
func cpuReferenceMS() (float64, uint64) {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<26; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return ms(time.Since(start)), x
}
