package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	shmem "repro"
	"repro/internal/erasure"
	"repro/internal/ioa"
	"repro/internal/transport"
	"repro/internal/wire"
)

// layerTimes holds the unit costs of layer calls the benchmark times itself
// on the workload's inputs, each with a note naming its base.
type layerTimes struct {
	EncodeNs, DecodeNs, AllocsPerFrame float64
	WireNote                           string
	EncodeUs, DecodeUs                 float64
	ErasureNote                        string
	RoundTripUs                        float64
	RoundTripNote                      string
	GenUs                              float64
	GenNote                            string
}

// timeRounds runs f rounds times and returns the median duration of one
// call divided by per (the calls each round makes).
func timeRounds(rounds, per int, f func() error) (time.Duration, error) {
	xs := make([]float64, rounds)
	for r := range xs {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[r] = float64(time.Since(t0)) / float64(per)
	}
	return time.Duration(median(xs)), nil
}

// timeLayers times the layer calls that apply to the workload: value
// generation always; the wire codec and a transport round trip on net; the
// erasure code on casgc.
func timeLayers(w workload, seed int64, tr *tracedRun, rec *recorder, parent int) (layerTimes, error) {
	var l layerTimes
	var err error
	step := func(name string, f func() error) {
		if err != nil {
			return
		}
		_, end := rec.begin(name, parent)
		err = f()
		end()
	}
	step("workload.gen", func() error { return timeGen(w, seed, &l) })
	if w.Backend == "net" {
		step("wire.codec", func() error { return timeWire(w, seed, &l) })
		frames, bytes := 0.0, 0.0
		for _, b := range tr.traced {
			frames += b.Frames
			bytes += b.Bytes
		}
		size := max(1, int(ratio(bytes, frames)))
		step("transport.roundtrip", func() error { return timeRoundTrip(size, &l) })
	}
	if strings.HasPrefix(w.Algorithm, "cas") {
		step("erasure.code", func() error { return timeErasure(w, seed, &l) })
	}
	return l, err
}

// valueSink keeps timeGen's generated values observable, so the compiler
// cannot drop the calls being timed.
var valueSink []byte

// timeGen times what the store does to produce a batch's inputs: partition
// the multi-key spec onto shards and generate every written value.
func timeGen(w workload, seed int64, l *layerTimes) error {
	m := w.batch(seed, 1, w.BatchOps)
	d, err := timeRounds(5, m.Ops, func() error {
		loads, err := m.Partition(shards)
		if err != nil {
			return err
		}
		for _, ld := range loads {
			for i := 0; i < ld.Writes; i++ {
				valueSink = shmem.MakeValue(w.ValueBytes, uint64(i))
			}
		}
		return nil
	})
	l.GenUs = float64(d) / 1e3
	l.GenNote = fmt.Sprintf("MultiSpec.Partition + MakeValue(%d) per write, / %d ops; median of 5", w.ValueBytes, m.Ops)
	return err
}

// timeWire times wire.Append and wire.Decode on the codec samples of every
// message type the workload's algorithm registers.
func timeWire(w workload, seed int64, l *layerTimes) error {
	prefix := strings.SplitN(w.Algorithm, "-", 2)[0] + "."
	var msgs []ioa.Message
	for _, id := range wire.Types() {
		c, _ := wire.CodecFor(id)
		if !strings.HasPrefix(c.Name, prefix) {
			continue
		}
		for j := uint64(0); j < 64; j++ {
			msgs = append(msgs, c.Sample(uint64(seed)*64+j))
		}
	}
	if len(msgs) == 0 {
		return fmt.Errorf("no wire codecs registered for %s", w.Algorithm)
	}
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		f, err := wire.Encode(m)
		if err != nil {
			return err
		}
		frames[i] = f
	}
	buf := make([]byte, 0, 4096)
	encode := func() error {
		for _, m := range msgs {
			var err error
			if buf, err = wire.Append(buf[:0], m); err != nil {
				return err
			}
		}
		return nil
	}
	decode := func() error {
		for _, f := range frames {
			if _, err := wire.Decode(f); err != nil {
				return err
			}
		}
		return nil
	}
	enc, err := timeRounds(200, len(msgs), encode)
	if err != nil {
		return err
	}
	dec, err := timeRounds(200, len(msgs), decode)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := encode(); err != nil {
		return err
	}
	if err := decode(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	l.EncodeNs, l.DecodeNs = float64(enc), float64(dec)
	l.AllocsPerFrame = float64(after.Mallocs-before.Mallocs) / float64(len(msgs))
	l.WireNote = fmt.Sprintf("%d codec samples of the %s* message types; median of 200 rounds", len(msgs), prefix)
	return nil
}

// timeRoundTrip echoes a frame of the run's mean bytes/frame between two
// loopback transport endpoints and reports the median round trip.
func timeRoundTrip(size int, l *layerTimes) error {
	a, err := transport.Listen("127.0.0.1:0", transport.Config{})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.Listen("127.0.0.1:0", transport.Config{})
	if err != nil {
		return err
	}
	defer b.Close()
	// Buffered so an echo that arrives after a timeout never blocks the
	// endpoint's reader.
	back := make(chan struct{}, 1)
	a.Serve(func([]byte) { back <- struct{}{} })
	b.Serve(func(f []byte) { _ = b.Send(a.Addr(), append([]byte(nil), f...)) })
	frame := make([]byte, size)
	const trips = 2000
	xs := make([]float64, 0, trips)
	for i := 0; i < trips+50; i++ {
		t0 := time.Now()
		if err := a.Send(b.Addr(), frame); err != nil {
			return err
		}
		select {
		case <-back:
		case <-time.After(2 * time.Second):
			return errors.New("transport round trip timed out")
		}
		if i >= 50 { // the first trips dial the connections
			xs = append(xs, float64(time.Since(t0))/1e3)
		}
	}
	l.RoundTripUs = median(xs)
	l.RoundTripNote = fmt.Sprintf("median of %d echoes of a %d-byte frame (the run's bytes/frame) over loopback", trips, size)
	return nil
}

// timeErasure times the (n, k) code the casgc servers use on values of the
// workload's size; decodes read a seeded random k-subset of shards, as a
// reader decodes from whichever k servers answer first.
func timeErasure(w workload, seed int64, l *layerTimes) error {
	k := servers - 2*faultsF
	code, err := erasure.New(servers, k)
	if err != nil {
		return err
	}
	const nvals = 64
	vals := make([][]byte, nvals)
	encoded := make([][]erasure.Shard, nvals)
	rng := rand.New(rand.NewSource(seed))
	subsets := make([][]erasure.Shard, nvals)
	for i := range vals {
		vals[i] = shmem.MakeValue(w.ValueBytes, uint64(seed)*nvals+uint64(i))
		if encoded[i], err = code.Encode(vals[i]); err != nil {
			return err
		}
		perm := rng.Perm(servers)[:k]
		for _, p := range perm {
			subsets[i] = append(subsets[i], encoded[i][p])
		}
	}
	enc, err := timeRounds(20, nvals, func() error {
		for _, v := range vals {
			if _, err := code.Encode(v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	dec, err := timeRounds(20, nvals, func() error {
		for _, s := range subsets {
			if _, err := code.Decode(s); err != nil {
				return err
			}
		}
		return nil
	})
	l.EncodeUs, l.DecodeUs = float64(enc)/1e3, float64(dec)/1e3
	l.ErasureNote = fmt.Sprintf("erasure.New(%d,%d) on %d values of %d bytes; median of 20 rounds", servers, k, nvals, w.ValueBytes)
	return err
}
