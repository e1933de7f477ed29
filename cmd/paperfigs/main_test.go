package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"anurand/internal/experiment"
)

func quickSuite() *experiment.Suite {
	cfg := experiment.DefaultConfig()
	cfg.Quick = true
	return experiment.NewSuite(cfg)
}

func TestEveryFigureRenders(t *testing.T) {
	suite := quickSuite()
	figs := map[string]func(io.Writer, *experiment.Suite, bool) error{
		"4": fig4, "5": fig5, "6a": fig6a, "6b": fig6b,
		"7": fig7, "8": fig8, "hotspot": extHotspot, "san": extSAN,
	}
	wants := map[string]string{
		"4":       "Figure 4",
		"5":       "Figure 5",
		"6a":      "Figure 6(a)",
		"6b":      "Figure 6(b)",
		"7":       "Figure 7",
		"8":       "Figure 8",
		"hotspot": "hotspot",
		"san":     "SAN",
	}
	for name, render := range figs {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := render(&buf, suite, false); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, wants[name]) {
				t.Fatalf("output missing %q:\n%s", wants[name], out)
			}
			if len(out) < 100 {
				t.Fatalf("implausibly short output:\n%s", out)
			}
		})
	}
}

func TestEveryFigureRendersCSV(t *testing.T) {
	suite := quickSuite()
	figs := map[string]func(io.Writer, *experiment.Suite, bool) error{
		"5": fig5, "6a": fig6a, "6b": fig6b, "7": fig7, "8": fig8,
		"hotspot": extHotspot, "san": extSAN,
	}
	for name, render := range figs {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := render(&buf, suite, true); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), ",") {
				t.Fatalf("CSV output has no commas:\n%s", buf.String())
			}
		})
	}
}

func TestReplicateRenders(t *testing.T) {
	cfg := experiment.DefaultConfig()
	cfg.Quick = true
	var buf bytes.Buffer
	if err := replicate(&buf, cfg, 2, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"across 2 seeds", "simple", "anu", "prescient", "vp"} {
		if !strings.Contains(out, want) {
			t.Fatalf("replicate output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureSeriesHaveExpectedWindowCount(t *testing.T) {
	suite := quickSuite()
	var buf bytes.Buffer
	if err := fig5(&buf, suite, true); err != nil {
		t.Fatal(err)
	}
	// Quick mode: 40 minutes -> 21 window rows per policy (minute 0..40
	// step 2) plus a header line each, 4 policies.
	lines := strings.Count(buf.String(), "\n")
	if lines < 4*21 {
		t.Fatalf("CSV too short: %d lines", lines)
	}
}
