package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec reads the metric lists BENCHMARK.json promises.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestQuickRuns runs every workload at quick size, untraced and traced,
// and checks that the outputs are correct, nothing failed and every
// metric BENCHMARK.json lists is reported. The last case runs edit with
// more sessions than a zone of 64 poles has four poles for each, so the
// edit network must grow with the session count.
func TestQuickRuns(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	type quickCase struct {
		workload string
		trace    bool
		sessions int
	}
	var cases []quickCase
	for _, w := range []string{"browse", "map_spill", "edit"} {
		cases = append(cases, quickCase{w, false, 0}, quickCase{w, true, 0})
	}
	cases = append(cases, quickCase{"edit", false, 20})
	for _, c := range cases {
		want := endToEnd
		if c.trace {
			want = perLayer
		}
		name := fmt.Sprintf("%s/trace=%v/sessions=%d", c.workload, c.trace, c.sessions)
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var out bytes.Buffer
			cfg := config{workload: c.workload, seed: 1, seconds: 1, trace: c.trace, quick: true,
				sessions: c.sessions, dataDir: dir, spansOut: filepath.Join(dir, "spans.json"), out: &out}
			if err := run(cfg); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("metric %s missing", m)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
			}
		})
	}
}
