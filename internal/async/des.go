package async

// desScheduler is the sequential deterministic discrete-event executor:
// every phase, including Workload.Step, runs inline on the single
// scheduling goroutine in strict (At, Seq) event order. It is the
// reference implementation of the Scheduler contract — the parallel
// executor is required to reproduce its virtual-time results exactly —
// and preserves the original engine's behavior bit for bit: same event
// order, same stochastic draw order, same floating-point operation
// order.
type desScheduler[D any] struct {
	*core[D]
}

// Close implements Scheduler; the DES holds no executor resources.
func (s *desScheduler[D]) Close() {}
