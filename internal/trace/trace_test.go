package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"shrimp/internal/sim"
)

// TestNilCollectorIsInert: every method must be a safe no-op on a nil
// collector, because instrumented code calls unconditionally.
func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Error("nil collector reports Enabled")
	}
	c.Add("t", "n", 0, 10)
	c.Begin("t", "n").End() // nil OpenSpan chain
	c.Count("t", "n", 1)
	c.Gauge("t", "n", 5)
	c.Observe("t", "n", 42)
	c.Bind(sim.NewEngine())
	c.Event(0, 0)
	c.ProcSwitch(0, &sim.Proc{Name: "p"})
	if c.Counter("t", "n") != 0 || c.HighWater("t", "n") != 0 || c.Hist("t", "n") != nil {
		t.Error("nil collector returned non-zero state")
	}
	if c.Spans() != nil || c.SpanStats() != nil || c.EngineEvents() != 0 {
		t.Error("nil collector returned non-empty aggregates")
	}
	if c.Summary() != "" {
		t.Error("nil collector Summary non-empty")
	}
	if _, err := c.ChromeTrace(); err != nil {
		t.Errorf("nil collector ChromeTrace: %v", err)
	}
	var buf bytes.Buffer
	c.WriteTopSpans(&buf, 5)
}

func TestCollectorSpansAndAggregates(t *testing.T) {
	c := New()
	eng := sim.NewEngine()
	c.Bind(eng)
	eng.Spawn("worker", func(p *sim.Proc) {
		s := c.Begin("node0/lib", "phase.a")
		p.Sleep(3 * time.Microsecond)
		s.End()
		c.Add("node0/nic", "du.dma", p.Now(), p.Now().Add(10*time.Microsecond))
		c.Count("node0/nic", "packets.out", 2)
		c.Gauge("node0/nic", "outq", 3)
		c.Gauge("node0/nic", "outq", 1)
		c.Observe("node0/nic", "payload.bytes", 4096)
	})
	eng.RunAll()

	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "phase.a" || spans[0].End-spans[0].Start != 3000 {
		t.Errorf("span 0 = %+v, want phase.a of 3000ns", spans[0])
	}
	if c.Counter("node0/nic", "packets.out") != 2 {
		t.Errorf("counter = %d, want 2", c.Counter("node0/nic", "packets.out"))
	}
	if c.HighWater("node0/nic", "outq") != 3 {
		t.Errorf("high-water = %d, want 3", c.HighWater("node0/nic", "outq"))
	}
	h := c.Hist("node0/nic", "payload.bytes")
	if h == nil || h.N != 1 || h.Sum != 4096 {
		t.Errorf("histogram = %+v, want one observation of 4096", h)
	}
	if c.EngineEvents() == 0 {
		t.Error("collector saw no engine events; Bind did not install it as tracer")
	}

	stats := c.SpanStats()
	if len(stats) != 2 || stats[0].Name != "du.dma" {
		t.Errorf("SpanStats[0] = %+v, want du.dma first (largest total)", stats)
	}
	if top := c.TopSpans(1); len(top) != 1 || top[0].Name != "du.dma" {
		t.Errorf("TopSpans(1) = %+v", top)
	}
}

// TestBindComposesWithUserTracer: binding must sit beside a tracer added
// before it, not displace it, and binding the same engine twice must not
// double-count.
func TestBindComposesWithUserTracer(t *testing.T) {
	eng := sim.NewEngine()
	dt := sim.NewDigestTracer()
	eng.AddTracer(dt)
	c := New()
	c.Bind(eng)
	c.Bind(eng)
	eng.Spawn("w", func(p *sim.Proc) { p.Sleep(time.Microsecond) })
	eng.RunAll()
	if dt.Events == 0 {
		t.Error("pre-installed tracer displaced by Collector.Bind")
	}
	if c.EngineEvents() != dt.Events {
		t.Errorf("collector counted %d events, the engine's other tracer %d", c.EngineEvents(), dt.Events)
	}
}

// TestBindUnderDigest: the determinism digest must keep working with a
// collector bound, and the collector must still observe execution.
func TestBindUnderDigest(t *testing.T) {
	run := func() *Collector {
		c := New()
		eng := sim.NewEngine()
		c.Bind(eng)
		eng.Spawn("w", func(p *sim.Proc) {
			s := c.Begin("node0/lib", "work")
			p.Sleep(2 * time.Microsecond)
			s.End()
		})
		eng.RunAll()
		return c
	}
	var c1, c2 *Collector
	d1 := sim.Digest(func() { c1 = run() })
	d2 := sim.Digest(func() { c2 = run() })
	if d1 != d2 {
		t.Fatalf("digest diverged with collector bound: %#x vs %#x", d1, d2)
	}
	if c1.EngineEvents() == 0 {
		t.Error("collector displaced by digest auto tracer")
	}
	if len(c1.Spans()) != 1 || len(c2.Spans()) != 1 {
		t.Errorf("spans lost under digest: %d and %d", len(c1.Spans()), len(c2.Spans()))
	}
}

// scenario builds a small deterministic workload and returns its collector.
func scenario() *Collector {
	c := New()
	eng := sim.NewEngine()
	c.Bind(eng)
	srv := sim.MakeServer(eng)
	for i := 0; i < 3; i++ {
		name := []string{"alpha", "beta", "gamma"}[i]
		eng.Spawn(name, func(p *sim.Proc) {
			for j := 0; j < 2; j++ {
				s := c.Begin("node0/"+name, "compute")
				p.Sleep(time.Duration(1+j) * time.Microsecond)
				s.End()
				start, end := srv.Reserve(2 * time.Microsecond)
				c.Add("node0/hw", "bus", start, end)
				c.Count("node0/hw", "ops", 1)
				c.Gauge("node0/hw", "depth", int64(j))
				c.Observe("node0/hw", "op.ns", int64(end-start))
			}
		})
	}
	eng.RunAll()
	return c
}

// TestExportsByteIdentical is the tentpole determinism guarantee: the
// Chrome trace, summary, and CSV of two runs of the same scenario must be
// byte-identical.
func TestExportsByteIdentical(t *testing.T) {
	c1, c2 := scenario(), scenario()
	j1, err := c1.ChromeTrace()
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	j2, err := c2.ChromeTrace()
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("chrome traces differ across reruns:\n%s\nvs\n%s", j1, j2)
	}
	if s1, s2 := c1.Summary(), c2.Summary(); s1 != s2 {
		t.Errorf("summaries differ across reruns:\n%s\nvs\n%s", s1, s2)
	}
	if v1, v2 := c1.CSV(), c2.CSV(); v1 != v2 {
		t.Errorf("CSV differs across reruns:\n%s\nvs\n%s", v1, v2)
	}
}

func TestChromeTraceShape(t *testing.T) {
	c := scenario()
	data, err := c.ChromeTrace()
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	if !json.Valid(data) {
		t.Fatal("chrome trace is not valid JSON")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	var meta, complete, counter int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
		case "C":
			counter++
		}
	}
	// 4 tracks (node0/{alpha,beta,gamma,hw}),
	// 3 procs x 2 iters x 2 spans each, 3 procs x 2 gauge samples.
	if meta != 4 {
		t.Errorf("got %d metadata events, want 4 (one per track)", meta)
	}
	if complete != 12 {
		t.Errorf("got %d complete events, want 12", complete)
	}
	if counter != 6 {
		t.Errorf("got %d counter events, want 6", counter)
	}
}

func TestSummaryContent(t *testing.T) {
	c := scenario()
	s := c.Summary()
	for _, want := range []string{"spans (by total virtual time):", "counters:", "gauges (high-water):", "histograms:", "bus", "compute", "ops"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	csv := c.CSV()
	if !strings.HasPrefix(csv, "kind,track,name,count,total_ns,max_ns,value\n") {
		t.Errorf("CSV missing header:\n%s", csv)
	}
	if !strings.Contains(csv, "counter,node0/hw,ops,,,,6\n") {
		t.Errorf("CSV missing counter row:\n%s", csv)
	}
}

func TestWriteTopSpans(t *testing.T) {
	var buf bytes.Buffer
	scenario().WriteTopSpans(&buf, 2)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Errorf("WriteTopSpans printed %d lines, want 3:\n%s", len(lines), buf.String())
	}
}
