package physical

import "repro/internal/dataflow"

// Inlet feeds network arrivals into a running pipeline without ever
// blocking the caller (see dataflow.Inlet): the transport delivers
// messages from a single dispatch goroutine, so Push only queues them,
// and the pipeline's task drains the queue in arrival order.
type Inlet struct{ dataflow.Inlet }

// NewInlet creates an empty inlet.
func NewInlet() *Inlet { return &Inlet{} }

// Source returns the operator that feeds the inlet's messages to the
// pipeline until it is closed (or the pipeline stops).
func (in *Inlet) Source(c *Counters) dataflow.RunFunc {
	return func(out *dataflow.Out) dataflow.Op {
		return dataflow.Op{Inlet: &in.Inlet, Push: func(_ int, m dataflow.Msg) {
			if m.Kind == dataflow.Data {
				c.RecvRows(len(m.Batch))
				c.EmitBatch(m.Batch)
			} else {
				c.RecvPunct()
			}
			out.Emit(m)
		}}
	}
}
