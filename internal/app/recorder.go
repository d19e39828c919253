package app

import (
	"fmt"

	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// Operation classes the recorder keys latency by. The client-observed
// classes measure arrival (open-loop generation instant) to reply — they
// include gateway queueing, so they diverge without bound past saturation.
// The .srv classes measure send to reply — transport, server queueing,
// admission backlog, service, replication — which admission control keeps
// bounded regardless of offered load.
const (
	ClassGet = iota
	ClassPut
	ClassGetSrv
	ClassPutSrv
	numClasses
)

var classNames = [numClasses]string{"get", "put", "get.srv", "put.srv"}

// ClassName returns a class's report label.
func ClassName(c int) string { return classNames[c] }

// Recorder aggregates the serving subsystem's observability: fine-bucket
// trace histograms per operation class, shed/failover/replication
// counters, and per-shard queue-depth high-water marks. It owns its
// histograms directly (so quantiles are available even in untraced bulk
// runs) and mirrors every observation into the cluster's trace.Collector
// when one is attached — there the histograms land on the "app" track and
// queue depths become per-node gauges. All recording happens in engine
// event order; no locks.
type Recorder struct {
	Lat [numClasses]*trace.Histogram

	// Counters, in engine event order. Admitted counts ops that passed
	// admission on the serving node; Shed/WrongNode/NotFound are the
	// non-OK per-op outcomes; ReplOps are synchronously replicated
	// writes; ReplFail are replication calls abandoned on a dead
	// follower; ResyncKeys are snapshot entries streamed to a rejoined
	// follower; Timeouts are client batch calls that hit the deadline
	// (failover detections); Retries are ops requeued after a timeout or
	// WrongNode; ValueErrs are get replies whose value failed the
	// embedded-key integrity check. EpochRejected counts ops and
	// replication records fenced off for carrying a stale shard epoch;
	// Unavail are writes a primary refused to acknowledge because its
	// synchronous replication failed while the quorum still trusts the
	// follower (minority-side primary); ReportsIgnored are down-reports the
	// quorum gate vetoed (the accused node is reachable from a majority);
	// StaleReads are tracked-mode gets that returned a value older than a
	// put acknowledged before the get was sent; Superseded are retried puts
	// dropped because a newer put on the same key was already acknowledged
	// (resending would reorder history); BudgetExhausted are ops dropped
	// after spending their retry budget.
	Admitted, Shed, WrongNode, NotFound int64
	ReplOps, ReplFail, ResyncKeys       int64
	Timeouts, Retries, ValueErrs        int64
	Failovers, AcceptErrs, ReplBad      int64
	ProtoErrs, Dropped                  int64
	EpochRejected, Unavail              int64
	ReportsIgnored, StaleReads          int64
	Superseded, BudgetExhausted         int64

	depthHW []int64

	// bounds is the fine bucket layout shared, read-only, by every class
	// histogram and the collector mirrors, built once rather than per op.
	bounds []int64
	tc     *trace.Collector
}

// NewRecorder sizes the recorder for a shard count; tc may be nil.
func NewRecorder(shards int, tc *trace.Collector) *Recorder {
	r := &Recorder{depthHW: make([]int64, shards), bounds: trace.FineBounds(), tc: tc}
	for c := range r.Lat {
		r.Lat[c] = trace.NewHistogram(r.bounds)
	}
	return r
}

// Latency folds one completed op into its class histogram.
func (r *Recorder) Latency(class int, d sim.Time) {
	ns := int64(d)
	r.Lat[class].Observe(ns)
	if r.tc.Enabled() {
		r.tc.ObserveBounds("app", "lat."+classNames[class], r.bounds, ns)
	}
}

// Depth records a shard's instantaneous admission-queue depth, observed by
// the serving node as a batch lands.
func (r *Recorder) Depth(node, shard int, depth int64) {
	if depth > r.depthHW[shard] {
		r.depthHW[shard] = depth
	}
	if r.tc.Enabled() {
		r.tc.Gauge(fmt.Sprintf("node%d/app", node), fmt.Sprintf("depth.s%d", shard), depth)
	}
}

// DepthHighWater returns the deepest admission queue any shard reached.
func (r *Recorder) DepthHighWater() int64 {
	var hw int64
	for _, d := range r.depthHW {
		if d > hw {
			hw = d
		}
	}
	return hw
}

// Count bumps a recorder counter (pass a pointer to one of the exported
// fields) and mirrors it onto the collector's
// "app" track.
func (r *Recorder) Count(p *int64, name string, delta int64) {
	*p += delta
	r.tc.Count("app", name, delta)
}

// Quantile reads a class's latency quantile in virtual nanoseconds.
func (r *Recorder) Quantile(class int, q float64) int64 {
	return r.Lat[class].Quantile(q)
}
