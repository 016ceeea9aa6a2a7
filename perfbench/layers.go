package main

import (
	"bytes"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/fluentps/fluentps/internal/telemetry"
	"github.com/fluentps/fluentps/internal/transport"
)

// histDelta returns the named histogram's bucket counts (keyed by the
// bucket's upper bound) observed between two snapshots, summed over the
// nodes.
func histDelta(name string, before, after []telemetry.Snapshot) map[int64]uint64 {
	d := map[int64]uint64{}
	for i := range after {
		h, _ := after[i].HistogramOf(name)
		for _, b := range h.Buckets {
			d[b.Le] += b.Count
		}
		h, _ = before[i].HistogramOf(name)
		for _, b := range h.Buckets {
			d[b.Le] -= b.Count
		}
	}
	return d
}

// histQuantile resolves the q-quantile of bucket counts to its bucket's
// upper bound; 0 when empty.
func histQuantile(d map[int64]uint64, q float64) int64 {
	les := make([]int64, 0, len(d))
	var total uint64
	for le, n := range d {
		if n > 0 {
			les = append(les, le)
			total += n
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(les, func(i, j int) bool { return les[i] < les[j] })
	target := uint64(q*float64(total) + 0.999999)
	if target < 1 {
		target = 1
	}
	var cum uint64
	for _, le := range les {
		cum += d[le]
		if cum >= target {
			return le
		}
	}
	return les[len(les)-1]
}

// counterDelta sums the named counter's growth over the nodes.
func counterDelta(name string, before, after []telemetry.Snapshot) uint64 {
	var t uint64
	for i := range after {
		t += after[i].CounterOr(name, 0) - before[i].CounterOr(name, 0)
	}
	return t
}

// idleShare is the share of the phase the servers' receive stages spent
// blocked in Recv waiting for the next message.
func idleShare(p *phase, serverLogs []*spanLog) float64 {
	var idle time.Duration
	for _, l := range serverLogs {
		for _, s := range l.spans {
			if s.kind != spanServerRecvWait {
				continue
			}
			start, end := s.start, s.start.Add(s.dur)
			if start.Before(p.start) {
				start = p.start
			}
			if end.After(p.end) {
				end = p.end
			}
			if end.After(start) {
				idle += end.Sub(start)
			}
		}
	}
	return ratio(float64(idle), float64(p.wall)*float64(len(serverLogs)))
}

// attribution splits the traced steps' time: the share the compute
// children (batch, gradient, delta) cover, and the share no child span
// covers at all.
func attribution(trainerLogs []*spanLog) (computeShare, unattributed float64) {
	var stepT, computeT, childT int64
	for _, l := range trainerLogs {
		for _, s := range l.spans {
			switch s.kind {
			case spanStep:
				stepT += int64(s.dur)
			case spanBatch, spanGradient, spanDelta:
				computeT += int64(s.dur)
				childT += int64(s.dur)
			case spanPushCall, spanPull, spanPushWait:
				childT += int64(s.dur)
			}
		}
	}
	return ratio(float64(computeT), float64(stepT)), ratio(float64(stepT-childT), float64(stepT))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// codecBytes is how many encoded bytes each codec measurement moves per
// message shape: enough repetitions that a 20 KB push is timed thousands
// of times and a 1 MB one dozens.
const codecBytes = 48 << 20

// codecStats times the transport layer's codec, framer and mux directly
// on the workload's push and pull-response shapes (server 0's share of
// the model), outside any training.
type codecStats struct {
	encodeUsPerMB, decodeUsPerMB float64
	frameRTNs, muxSendNs         int64
}

func measureCodec(tk *task) (codecStats, error) {
	var cs codecStats
	keys := tk.assign.KeysOf(0)
	n := 0
	for _, k := range keys {
		n += tk.layout.KeySize(k)
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i) * 1e-3
	}
	shapes := []*transport.Message{
		{Type: transport.MsgPush, From: transport.Worker(0), To: transport.Server(0), Seq: 1, Progress: 1, Keys: keys, Vals: vals},
		{Type: transport.MsgPullResp, From: transport.Server(0), To: transport.Worker(0), Seq: 2, Keys: keys, Vals: vals},
	}
	size := transport.EncodedSize(shapes[0])
	reps := codecBytes / size
	if reps < 16 {
		reps = 16
	}
	mb := float64(2*reps*size) / (1 << 20)

	buf := make([]byte, 0, size)
	encoded := make([][]byte, len(shapes))
	start := time.Now()
	for i := 0; i < reps; i++ {
		for j, m := range shapes {
			buf = transport.Encode(buf[:0], m)
			if i == 0 {
				encoded[j] = append([]byte(nil), buf...)
			}
		}
	}
	cs.encodeUsPerMB = nsTo(int64(time.Since(start)), time.Microsecond) / mb

	into := &transport.Message{}
	start = time.Now()
	for i := 0; i < reps; i++ {
		for _, data := range encoded {
			if err := transport.DecodeInto(into, data); err != nil {
				return cs, err
			}
		}
	}
	cs.decodeUsPerMB = nsTo(int64(time.Since(start)), time.Microsecond) / mb

	var frame bytes.Buffer
	rt := make([]int64, 0, 2*reps)
	for i := 0; i < reps; i++ {
		for _, m := range shapes {
			t0 := time.Now()
			if err := transport.WriteFrame(&frame, m); err != nil {
				return cs, err
			}
			got, err := transport.ReadFrame(&frame)
			if err != nil {
				return cs, err
			}
			transport.ReleaseReceived(got)
			rt = append(rt, int64(time.Since(t0)))
		}
	}
	cs.frameRTNs = percentile(rt, 50)

	sends, err := muxSends(shapes[0], reps)
	if err != nil {
		return cs, err
	}
	cs.muxSendNs = percentile(sends, 50)
	return cs, nil
}

// muxSends times MuxStream.Send of m over an in-memory connection whose
// far side drains every message.
func muxSends(m *transport.Message, reps int) ([]int64, error) {
	a, b := net.Pipe()
	cli := transport.NewMuxClient(a, transport.MuxConfig{})
	srv := transport.NewMuxServer(b, transport.MuxConfig{})
	var wg sync.WaitGroup
	defer func() {
		_ = cli.Close()
		_ = srv.Close()
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, err := srv.AcceptStream()
		if err != nil {
			return
		}
		for {
			got, err := st.Recv()
			if err != nil {
				return
			}
			transport.ReleaseReceived(got)
		}
	}()
	st, err := cli.OpenStream()
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := st.Send(m); err != nil {
			return nil, err
		}
		out = append(out, int64(time.Since(t0)))
	}
	return out, nil
}
