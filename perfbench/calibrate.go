package main

import (
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Host-speed calibration.
//
// On the shared 2-vCPU virtual machine the benchmark was sized on, the
// same verdict takes up to twice as long for minutes at a time, with
// nothing else running in the machine: the host's other tenants slow the
// vCPUs down. Raw wall-clock medians of runs a few minutes apart then
// differ by more than any useful bound. So the timed loop runs in slices,
// with a short burst of fixed work (calUnit) before each slice and after
// the last one. A slice's host speed is calRefMS over the median time of
// the bursts around it, and every time measured in the slice is
// scaled by it: the end-to-end times read as they would on the reference
// host at its quiet speed. Raw times are printed alongside.

const (
	// sliceLen is how long the workload runs between calibration bursts.
	// Host slowdowns last seconds, so a burst every half second tracks them.
	sliceLen = 500 * time.Millisecond
	// calUnits is the number of calUnit calls in one burst, about 8 ms.
	calUnits = 8
	// calRefMS is a burst's time on the reference host at its quiet speed.
	calRefMS = 8.0
	// calWindow is how many bursts on each side of a slice its speed is
	// the median of. One burst can be cut short or stretched by a
	// scheduling blip; the median of six follows the host's slowdowns,
	// which last seconds, without passing a blip on to the slice's times.
	calWindow = 3
)

// calSink keeps the compiler from discarding calUnit's work.
var calSink int

// calUnit is a fixed piece of work that does not touch the checker: it
// formats integers, fills a map and sorts the keys, the same mix of
// allocation, hashing and pointer chasing that exploration does.
func calUnit() int {
	m := make(map[string]int, 512)
	keys := make([]string, 0, 16)
	for i := 0; i < 4000; i++ {
		k := strconv.Itoa(i*7919) + ":" + strconv.Itoa(i)
		m[k] = i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return len(keys) + m[keys[0]]
}

// calibrate collects the workload's garbage, so its collection is not
// timed, then times one burst of calUnits and returns it in ms.
func calibrate() float64 {
	runtime.GC()
	start := time.Now()
	for k := 0; k < calUnits; k++ {
		calSink += calUnit()
	}
	return float64(time.Since(start)) / 1e6
}

// runSliced runs the workload in slices of sliceLen, calling run with each
// slice's length, until d of workload time has passed. It returns the
// slices and the calibration bursts around them (one more than slices).
func runSliced(d time.Duration, run func(time.Duration) loopStats) ([]loopStats, []float64) {
	cal := []float64{calibrate()}
	var slices []loopStats
	for done := time.Duration(0); done < d; {
		s := run(min(sliceLen, d-done))
		done += s.wall
		slices = append(slices, s)
		cal = append(cal, calibrate())
	}
	return slices, cal
}

// setCalibrated records the end-to-end latency and throughput metrics at
// the reference speed, and notes the raw figures and the host's speed.
func setCalibrated(rep *report, slices []loopStats, cal []float64) {
	var lat, raw, speeds []float64
	var refS, rawS float64
	execs := 0
	for i, s := range slices {
		speed := calRefMS / median(cal[max(0, i-calWindow+1):min(len(cal), i+1+calWindow)])
		for _, ms := range s.latMS {
			lat = append(lat, ms*speed)
			raw = append(raw, ms)
		}
		refS += s.wall.Seconds() * speed
		rawS += s.wall.Seconds()
		execs += s.execs
		speeds = append(speeds, speed)
	}
	p50, n := quantile(lat, 0.5)
	rep.set("verdict_p50_ms", p50, "ms", n)
	tv, tq, _ := tail(lat)
	rep.set("verdict_tail_ms", tv, "ms", n)
	rep.note("verdict_tail_ms is the p%.2f of %d verdicts", 100*tq, n)
	rep.set("jobs_per_s", ratio(float64(len(lat)), refS), "1/s", 0)
	rep.set("execs_per_s", ratio(float64(execs), refS), "1/s", 0)
	rawP50, _ := quantile(raw, 0.5)
	rawTail, _, _ := tail(raw)
	rep.note("raw: verdict_p50_ms %.4f, verdict_tail_ms %.4f, jobs_per_s %.4f, execs_per_s %.4f",
		rawP50, rawTail, ratio(float64(len(raw)), rawS), ratio(float64(execs), rawS))
	rep.note("host speed: median %.3f of the reference over %d slices", median(speeds), len(speeds))
}
