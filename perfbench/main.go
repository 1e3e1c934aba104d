// Command perfbench is the repository benchmark: it runs one workload of
// the simulator from a seed, checks the outputs, and prints every metric by
// name and unit. See README.md for the workloads and the metric map.
//
//	perfbench --workload testbed|fabric|served --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result object; the line before
// it holds the details (host, sample counts, digests, failed checks).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// gomaxprocs is the processor count every workload is sized for.
const gomaxprocs = 2

// traceDir receives the traced run's Chrome trace and CPU profile,
// relative to the working directory.
const traceDir = ".bench_build/traces"

type options struct {
	workload string
	seed     int64
	seconds  float64
	rec      *Recorder // nil: untraced
}

// outcome collects one run's figures and check results.
type outcome struct {
	metrics           map[string]float64
	detail            map[string]any
	attempted, failed int
	failures          []string
	profile           []byte // traced runs: the CPU profile
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
}

// check records a failed output check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// cpuShares attributes a CPU profile to layers.
func (o *outcome) cpuShares(prof []byte) error {
	samples, err := ParseProfile(prof)
	if err != nil {
		return err
	}
	shares, err := LayerShares(samples)
	if err != nil {
		return err
	}
	for l, v := range shares {
		o.metrics[l+".cpu_frac"] = v
	}
	o.profile = prof
	o.detail["cpu_samples"] = len(samples)
	return nil
}

// profile runs f under the CPU profiler and returns the profile.
func profile(f func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	err := f()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

var workloads = map[string]func(options, *outcome) error{
	"testbed": testbed.run,
	"fabric":  fabric.run,
	"served":  runServed,
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report selects the catalogue the run mode promises. End-to-end figures
// must all be measured; per-layer rows a workload does not exercise read 0.
func report(out *outcome, traced bool) (result, []string, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	r := result{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]value, len(specs)),
	}
	var unused []string
	for _, s := range specs {
		v, ok := out.metrics[s.Name]
		if !ok {
			if !traced {
				return r, nil, fmt.Errorf("metric %s was not measured", s.Name)
			}
			unused = append(unused, s.Name)
		}
		r.Metrics[s.Name] = value{Value: v, Unit: s.Unit}
	}
	if r.Attempted < 1 {
		return r, nil, errors.New("no operation was attempted")
	}
	return r, unused, nil
}

// hostInfo records where the figures were measured.
func hostInfo() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpu,
	}
}

// writeTrace stores the traced run's spans and profile for offline viewing.
func writeTrace(o options, prof []byte) ([]string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	var buf bytes.Buffer
	if err := o.rec.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(stem+".trace.json", buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(stem+".pprof", prof, 0o644); err != nil {
		return nil, err
	}
	return []string{stem + ".trace.json", stem + ".pprof"}, nil
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "testbed, fabric or served")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed window in host seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload testbed|fabric|served, --seconds > 0, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	o := options{workload: *workload, seed: *seed, seconds: *seconds}
	if *trace == 1 {
		o.rec = NewRecorder()
	}
	out := newOutcome()
	if err := fn(o, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res, unused, err := report(out, o.rec != nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	detail := map[string]any{
		"workload": o.workload,
		"seed":     o.seed,
		"traced":   o.rec != nil,
		"host":     hostInfo(),
		"failures": out.failures,
	}
	for k, v := range out.detail {
		detail[k] = v
	}
	if o.rec != nil {
		detail["not_exercised"] = unused
		detail["span_self_ms"] = selfMillis(o.rec.Spans())
		files, err := writeTrace(o, out.profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		detail["trace_files"] = files
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"detail": detail}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed checks: %s\n", o.workload, strings.Join(out.failures, "; "))
		return 1
	}
	return 0
}

// selfMillis totals span self time per span name, in milliseconds.
func selfMillis(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for name, d := range SelfTimes(spans) {
		out[name] = float64(d.Microseconds()) / 1e3
	}
	return out
}

func main() { os.Exit(run(os.Args[1:])) }
