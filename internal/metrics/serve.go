package metrics

import (
	"bufio"
	"fmt"
	"net/http"
)

// Handler exposes a (possibly still-recording) series over HTTP — the
// live executor's export surface, the shape a production training or
// serving stack scrapes:
//
//	GET /metrics      Prometheus text format: the latest sample as
//	                  gauges plus the run's cumulative counters
//	GET /series.csv   the full retained series, byte-identical to
//	                  Series.WriteCSV
//
// The handler only reads through the Series mutex; it spawns no
// goroutines and reads no clocks (the caller owns the http.Server and
// its accept loop — cmd/asyncmr starts one when -metrics-addr is set).
func Handler(s *Series) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeProm(w, s)
	})
	mux.HandleFunc("/series.csv", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		s.WriteCSV(w)
	})
	return mux
}

// writeProm renders the latest sample in Prometheus text format. All
// series share one fixed metric order; lag-occupancy buckets are
// labelled by the fixed bucket table, so output order never depends on
// map iteration.
func writeProm(w http.ResponseWriter, s *Series) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	last, ok := s.Last()
	fmt.Fprintf(bw, "# HELP asyncmr_samples_total Samples recorded (including any the ring dropped).\n")
	fmt.Fprintf(bw, "# TYPE asyncmr_samples_total counter\n")
	fmt.Fprintf(bw, "asyncmr_samples_total %d\n", uint64(s.Len())+s.Dropped())
	if !ok {
		return
	}
	gauge := func(name, help string, val string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, val)
	}
	counter := func(name, help string, val string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, val)
	}
	gauge("asyncmr_time_seconds", "Engine time of the latest sample (live: measured elapsed seconds).", fmtF(float64(last.Time)))
	gauge("asyncmr_residual", "Maximum per-partition workload residual (-1: workload not Progressive).", fmtF(last.Residual))
	gauge("asyncmr_residual_sum", "Sum of per-partition workload residuals.", fmtF(last.ResidualSum))
	counter("asyncmr_steps_total", "Asynchronous steps completed.", fmt.Sprintf("%d", last.Steps))
	counter("asyncmr_publishes_total", "Versions published to the shared store.", fmt.Sprintf("%d", last.Publishes))
	counter("asyncmr_gate_wait_seconds_total", "Cumulative staleness-gate wait time.", fmtF(float64(last.GateWait)))
	counter("asyncmr_store_versions_total", "Total published versions across partitions.", fmt.Sprintf("%d", last.StoreVersions))
	gauge("asyncmr_staleness_bound_min", "Smallest per-worker staleness bound (negative: unbounded).", fmt.Sprintf("%d", last.BoundMin))
	gauge("asyncmr_staleness_bound_max", "Largest per-worker staleness bound (negative: unbounded).", fmt.Sprintf("%d", last.BoundMax))
	gauge("asyncmr_lag_max", "Largest observed input version lag.", fmt.Sprintf("%d", last.LagMax))
	fmt.Fprintf(bw, "# HELP asyncmr_lag_occupancy Input-lag observations in the latest sample by staleness bucket.\n")
	fmt.Fprintf(bw, "# TYPE asyncmr_lag_occupancy gauge\n")
	for i, c := range last.LagHist {
		fmt.Fprintf(bw, "asyncmr_lag_occupancy{bucket=%q} %d\n", lagBucketLabels[i], c)
	}
	gauge("asyncmr_pool_queue_depth", "Work-stealing pool backlog (live executor only).", fmt.Sprintf("%d", last.QueueDepth))
	counter("asyncmr_pool_steals_total", "Work-stealing pool steals (live executor only).", fmt.Sprintf("%d", last.Steals))
}
