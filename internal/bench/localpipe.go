package bench

import (
	"context"
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/tuple"
)

// LocalJoinWorkload holds the pre-encoded stored payloads of the
// local join hot-path benchmark, as a DHT partition would hold them.
// Build it once (outside any timed loop) and Run it per iteration.
type LocalJoinWorkload struct {
	NLeft, NRight int
	left, right   [][]byte
}

// NewLocalJoinWorkload encodes nLeft left tuples (unique node column,
// join key i % nRight) and nRight right tuples (unique key): every
// left tuple joins exactly once.
func NewLocalJoinWorkload(nLeft, nRight int) *LocalJoinWorkload {
	w := &LocalJoinWorkload{NLeft: nLeft, NRight: nRight}
	w.left = make([][]byte, nLeft)
	for i := range w.left {
		w.left[i] = tuple.Tuple{tuple.String(fmt.Sprintf("node-%d", i)), tuple.Int(int64(i % nRight))}.Bytes()
	}
	w.right = make([][]byte, nRight)
	for i := range w.right {
		w.right[i] = tuple.Tuple{tuple.Int(int64(i)), tuple.String(fmt.Sprintf("info-%d", i))}.Bytes()
	}
	return w
}

// Run drives the local-execution join hot path with no network: left
// and right scan pipelines (scan → filter → rehash exchange) feed the
// join collector's HybridJoin (no memory budget) through the same batch
// ship shape the distributed engine uses, at the given vectorization
// width and scan parallelism. Returns the joined row count; wrap the
// call in testing.Benchmark (or b.N loops) for ns/op, rows/sec, and
// allocs/op — this is the microcosm BENCH_PR4.json tracks for the
// batch-at-a-time speedup.
func (wl *LocalJoinWorkload) Run(batchSize, workers int) (int, error) {
	return wl.run(batchSize, workers, nil)
}

// RunInstrumented is Run with the obs hot-path instrumentation the
// distributed engine applies live: a per-batch ship counter and batch
// size histogram plus a per-row sink counter, all registered in reg.
// `pierbench -experiment obs` compares it against Run to measure the
// instrumentation overhead budget (BENCH_PR10.json tracks ≤3%).
func (wl *LocalJoinWorkload) RunInstrumented(batchSize, workers int, reg *obs.Registry) (int, error) {
	if reg == nil {
		reg = obs.New()
	}
	return wl.run(batchSize, workers, reg)
}

func (wl *LocalJoinWorkload) run(batchSize, workers int, reg *obs.Registry) (int, error) {
	// Hot-path instruments: resolved once here, one atomic add per
	// observation inside the loops — the same pattern every layer of
	// the engine uses. nil when uninstrumented (the base path keeps
	// the same nil check the nil-safe instruments cost everywhere).
	var shipBatches, rowsOut *obs.Counter
	var shipSize *obs.Histogram
	if reg != nil {
		shipBatches = reg.Counter("bench_ship_batches_total")
		rowsOut = reg.Counter("bench_rows_out_total")
		shipSize = reg.Histogram("bench_ship_batch_tuples", obs.CountBuckets)
	}
	nLeft := wl.NLeft
	leftPayloads, rightPayloads := wl.left, wl.right
	shard := func(payloads [][]byte) func(ns string, partitions int) [][][]byte {
		return func(ns string, partitions int) [][][]byte {
			if partitions > len(payloads) {
				partitions = len(payloads)
			}
			if partitions < 1 {
				partitions = 1
			}
			out := make([][][]byte, partitions)
			per := (len(payloads) + partitions - 1) / partitions
			for i := 0; i < partitions; i++ {
				lo := i * per
				hi := lo + per
				if hi > len(payloads) {
					hi = len(payloads)
				}
				if lo < hi {
					out[i] = payloads[lo:hi]
				}
			}
			return out
		}
	}

	// Collector: the join a plan's collector runs plus a counting sink,
	// fed through inlets exactly like rehashed network arrivals.
	collector := physical.NewPipeline("join-collector")
	collector.SetDetail(false)
	inL, inR := physical.NewInlet(), physical.NewInlet()
	l := collector.Add("probe-src.l", inL.Source)
	r := collector.Add("probe-src.r", inR.Source)
	jp := collector.Add("hybrid-join", physical.HybridJoin([2]int{2, 2}, [2][]int{{1}, {0}}, physical.HybridJoinConfig{}))
	collector.Connect(l, jp)
	collector.Connect(r, jp)
	rows := 0
	sink := collector.Add("sink", physical.FuncSink(func(t tuple.Tuple) {
		rows++
		if rowsOut != nil {
			rowsOut.Inc()
		}
	}))
	collector.Connect(jp, sink)
	run, err := collector.Start(context.Background())
	if err != nil {
		return 0, err
	}

	ship := func(in *physical.Inlet) func(stage, side int, window uint64, keys [][]byte, ts []tuple.Tuple) int {
		return func(stage, side int, window uint64, keys [][]byte, ts []tuple.Tuple) int {
			if shipBatches != nil {
				shipBatches.Inc()
				shipSize.Observe(uint64(len(ts)))
			}
			// The exchange recycles its container after the call, so
			// hand the inlet a copy — the same transfer the network
			// decode path performs.
			in.Push(dataflow.BatchMsg(append(dataflow.GetBatch(), ts...), window))
			return len(ts)
		}
	}
	pred := &expr.Cmp{Op: expr.GE, L: &expr.Col{Index: 1}, R: &expr.Lit{V: tuple.Int(0)}}

	side := func(name string, payloads [][]byte, sideNo int, keyCols []int, in *physical.Inlet) error {
		p := physical.NewPipeline(name)
		p.SetDetail(false)
		src := p.Add("scan", physical.ScanSource(shard(payloads), name, 2, []int{0, 1}, batchSize, workers))
		prev := src
		if sideNo == 0 {
			f := p.Add("filter", physical.Filter(pred))
			p.Connect(prev, f)
			prev = f
		}
		rh := p.Add("rehash", physical.RehashExchange(0, sideNo, keyCols, ship(in), nil, nil))
		p.Connect(prev, rh)
		return p.Run(context.Background())
	}
	if err := side("r", rightPayloads, 1, []int{0}, inR); err != nil {
		return 0, err
	}
	if err := side("l", leftPayloads, 0, []int{1}, inL); err != nil {
		return 0, err
	}
	inL.Close()
	inR.Close()
	if err := run.Wait(); err != nil {
		return 0, err
	}
	if rows != nLeft {
		return rows, fmt.Errorf("local join pipeline produced %d rows, want %d", rows, nLeft)
	}
	return rows, nil
}
