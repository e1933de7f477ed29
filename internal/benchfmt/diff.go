package benchfmt

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Thresholds tunes when a metric delta counts as a real change rather
// than run-to-run noise. Benchmark metrics are costs, so lower is
// better for every classification here.
type Thresholds struct {
	// Default is the relative tolerance applied to any metric without
	// a PerMetric entry: a value above old*(1+Default) regresses, below
	// old*(1-Default) improves.
	Default float64
	// PerMetric overrides the relative tolerance for specific units.
	// A tolerance of 0 means any increase beyond the floor regresses —
	// the right setting for exact count metrics.
	PerMetric map[string]float64
	// Floors are absolute per-metric deltas below which a change is
	// noise no matter the ratio: 0.4 ns on a 1 ns baseline is +40% but
	// still sub-nanosecond clock jitter. A metric without a floor uses
	// 0 (every absolute delta is meaningful).
	Floors map[string]float64
}

// DefaultThresholds returns the repository's gate settings: 30%
// relative tolerance on timings with a half-nanosecond floor, exact
// comparison (tolerance 0, no floor) for allocation counts, and a
// one-word floor for B/op so one stray byte of rounding cannot fail a
// report.
func DefaultThresholds() Thresholds {
	return Thresholds{
		Default: 0.30,
		PerMetric: map[string]float64{
			"allocs/op": 0,
			"B/op":      0,
		},
		Floors: map[string]float64{
			"ns/op":  0.5,
			"ns/key": 0.5,
			"B/op":   8,
		},
	}
}

// tolerance resolves the relative tolerance for a metric.
func (t Thresholds) tolerance(metric string) float64 {
	if tol, ok := t.PerMetric[metric]; ok {
		return tol
	}
	return t.Default
}

// Class is the verdict on one (benchmark, metric) pair.
type Class int

const (
	// Unchanged means the delta is within tolerance or under the noise
	// floor.
	Unchanged Class = iota
	// Improvement means the metric dropped beyond tolerance and floor.
	Improvement
	// Regression means the metric rose beyond tolerance and floor.
	Regression
	// ZeroRegression means a count-like metric regressed from a zero
	// baseline — an absolute guarantee broken, flagged regardless of
	// relative tolerance.
	ZeroRegression
)

// String renders the verdict for reports.
func (c Class) String() string {
	switch c {
	case Improvement:
		return "improvement"
	case Regression:
		return "REGRESSION"
	case ZeroRegression:
		return "REGRESSION (zero baseline)"
	default:
		return "ok"
	}
}

// Delta is one compared (benchmark, metric) pair.
type Delta struct {
	Key    string  // package-qualified benchmark name
	Metric string  // unit, e.g. "ns/op"
	Old    float64 // baseline value
	New    float64 // current value
	Class  Class
}

// Change returns the relative change in percent, or NaN when the
// baseline is zero.
func (d Delta) Change() float64 {
	if d.Old == 0 {
		return math.NaN()
	}
	return (d.New/d.Old - 1) * 100
}

// Report is the outcome of diffing two benchmark files across all
// shared metrics.
type Report struct {
	// BaseLabel and CurLabel name the compared files in the rendered
	// report (file paths, usually).
	BaseLabel, CurLabel string
	// BaseEnv and CurEnv are the recording contexts.
	BaseEnv, CurEnv string
	// Thresholds are the settings the diff ran with.
	Thresholds Thresholds
	// Deltas holds every compared (benchmark, metric) pair in
	// deterministic (key, metric) order.
	Deltas []Delta
	// Added and Removed list benchmarks present in only the current or
	// only the baseline file. They never gate — suites evolve — but a
	// report that hid them would make silent coverage loss look like a
	// clean run.
	Added, Removed []string
}

// Diff compares every metric shared by benchmarks present in both
// files, classifying each pair against th.
func Diff(base, cur *File, th Thresholds) *Report {
	r := &Report{
		BaseEnv:    base.Env(),
		CurEnv:     cur.Env(),
		Thresholds: th,
	}
	baseBy := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Key()] = b
	}
	curKeys := make(map[string]bool, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curKeys[b.Key()] = true
		old, ok := baseBy[b.Key()]
		if !ok {
			r.Added = append(r.Added, b.Key())
			continue
		}
		metrics := make([]string, 0, len(b.Metrics))
		for m := range b.Metrics {
			if _, shared := old.Metrics[m]; shared {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			r.Deltas = append(r.Deltas, classify(b.Key(), m, old.Metrics[m], b.Metrics[m], th))
		}
	}
	for _, b := range base.Benchmarks {
		if !curKeys[b.Key()] {
			r.Removed = append(r.Removed, b.Key())
		}
	}
	sort.Strings(r.Added)
	sort.Strings(r.Removed)
	sort.Slice(r.Deltas, func(i, j int) bool {
		if r.Deltas[i].Key != r.Deltas[j].Key {
			return r.Deltas[i].Key < r.Deltas[j].Key
		}
		return r.Deltas[i].Metric < r.Deltas[j].Metric
	})
	return r
}

// classify applies the noise model to one metric pair.
func classify(key, metric string, old, v float64, th Thresholds) Delta {
	d := Delta{Key: key, Metric: metric, Old: old, New: v}
	diff := v - old
	if math.Abs(diff) <= th.Floors[metric] {
		return d // inside the noise floor, whatever the ratio
	}
	switch {
	case old == 0 && v > 0:
		if CountLike(metric) {
			d.Class = ZeroRegression
		}
		// A timing that was 0 in the baseline carries no information;
		// leave it Unchanged rather than invent an infinite ratio.
	case old > 0 && v > old*(1+th.tolerance(metric)):
		d.Class = Regression
	case old > 0 && v < old*(1-th.tolerance(metric)):
		d.Class = Improvement
	}
	return d
}

// Regressions returns the deltas classified as regressions.
func (r *Report) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Class == Regression || d.Class == ZeroRegression {
			out = append(out, d)
		}
	}
	return out
}

// Improvements returns the deltas classified as improvements.
func (r *Report) Improvements() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Class == Improvement {
			out = append(out, d)
		}
	}
	return out
}

// HasRegressions reports whether any compared metric regressed.
func (r *Report) HasRegressions() bool { return len(r.Regressions()) > 0 }

// Markdown renders the report as GitHub-flavored markdown: a verdict
// line, the regression/improvement tables, coverage changes, and a
// collapsed full table of every compared pair.
func (r *Report) Markdown(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("## Benchmark diff: %s vs %s\n\n", orDash(r.BaseLabel), orDash(r.CurLabel))
	bw.printf("- baseline: %s\n", r.BaseEnv)
	bw.printf("- current: %s\n", r.CurEnv)
	regs, imps := r.Regressions(), r.Improvements()
	bw.printf("- compared %d (benchmark, metric) pairs: **%d regressions**, %d improvements, %d within noise\n\n",
		len(r.Deltas), len(regs), len(imps), len(r.Deltas)-len(regs)-len(imps))

	if len(regs) > 0 {
		bw.printf("### Regressions\n\n")
		deltaTable(bw, regs)
	}
	if len(imps) > 0 {
		bw.printf("### Improvements\n\n")
		deltaTable(bw, imps)
	}
	if len(r.Added) > 0 || len(r.Removed) > 0 {
		bw.printf("### Coverage changes\n\n")
		for _, k := range r.Added {
			bw.printf("- added: `%s`\n", k)
		}
		for _, k := range r.Removed {
			bw.printf("- removed: `%s` (baseline entry no longer runs — rerecord or restore it)\n", k)
		}
		bw.printf("\n")
	}
	if len(r.Deltas) > 0 {
		bw.printf("<details><summary>All compared metrics</summary>\n\n")
		deltaTable(bw, r.Deltas)
		bw.printf("</details>\n")
	}
	return bw.err
}

// deltaTable writes one markdown table of deltas.
func deltaTable(bw *errWriter, ds []Delta) {
	bw.printf("| benchmark | metric | old | new | change | verdict |\n")
	bw.printf("|---|---|---:|---:|---:|---|\n")
	for _, d := range ds {
		change := "n/a"
		if c := d.Change(); !math.IsNaN(c) {
			change = fmt.Sprintf("%+.1f%%", c)
		}
		bw.printf("| `%s` | %s | %.4g | %.4g | %s | %s |\n",
			d.Key, d.Metric, d.Old, d.New, change, d.Class)
	}
	bw.printf("\n")
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

// errWriter latches the first write error so the render path stays
// linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
