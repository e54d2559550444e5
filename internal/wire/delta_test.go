package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestQuantFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    QuantDelta
	}{
		{"int8", QuantDelta{Width: 1, Scale: 0.25, Q: []int16{127, -128, 0, 1, -1}}},
		{"int16", QuantDelta{Width: 2, Scale: 1e-4, Q: []int16{32767, -32768, 0, 999}}},
		{"empty8", QuantDelta{Width: 1, Scale: 0, Q: nil}},
		{"empty16", QuantDelta{Width: 2, Scale: 0, Q: nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := MeshMessage{From: 2, To: 5, Kind: "fedavg/download", ShareIdx: -1}
			frame := AppendQuantFrame(nil, m, tc.q)
			if got, want := len(frame), QuantFrameSize(m.Kind, tc.q.Width, len(tc.q.Q)); got != want {
				t.Fatalf("frame is %d bytes, QuantFrameSize says %d", got, want)
			}
			gotM, gotQ, err := DecodeQuantPayload(frame[HeaderSize:])
			if err != nil {
				t.Fatal(err)
			}
			m.Payload = nil
			if !reflect.DeepEqual(gotM, m) {
				t.Fatalf("envelope: got %+v want %+v", gotM, m)
			}
			if gotQ.Width != tc.q.Width || gotQ.Scale != tc.q.Scale || len(gotQ.Q) != len(tc.q.Q) {
				t.Fatalf("block: got %+v want %+v", gotQ, tc.q)
			}
			for i := range tc.q.Q {
				if gotQ.Q[i] != tc.q.Q[i] {
					t.Fatalf("Q[%d] = %d, want %d", i, gotQ.Q[i], tc.q.Q[i])
				}
			}
		})
	}
}

func TestSparseFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    SparseDelta
	}{
		{"float64", SparseDelta{Dim: 10, Idx: []int32{0, 4, 9}, Width: 0, Vals: []float64{1.5, -2.5, 1e-300}}},
		{"int8", SparseDelta{Dim: 10, Idx: []int32{3, 7}, Width: 1, Scale: 0.5, Q: []int16{-128, 127}}},
		{"int16", SparseDelta{Dim: 100, Idx: []int32{99}, Width: 2, Scale: 0.125, Q: []int16{-32768}}},
		{"empty", SparseDelta{Dim: 10, Width: 0}},
		{"empty-dim0", SparseDelta{Dim: 0, Width: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := MeshMessage{From: 0, To: 1, Kind: "fedavg/broadcast", ShareIdx: 0}
			frame := AppendSparseFrame(nil, m, tc.s)
			if got, want := len(frame), SparseFrameSize(m.Kind, tc.s.Width, len(tc.s.Idx)); got != want {
				t.Fatalf("frame is %d bytes, SparseFrameSize says %d", got, want)
			}
			_, gotS, err := DecodeSparsePayload(frame[HeaderSize:])
			if err != nil {
				t.Fatal(err)
			}
			if gotS.Dim != tc.s.Dim || gotS.Width != tc.s.Width || gotS.Scale != tc.s.Scale {
				t.Fatalf("block header: got %+v want %+v", gotS, tc.s)
			}
			if len(gotS.Idx) != len(tc.s.Idx) {
				t.Fatalf("got %d indices, want %d", len(gotS.Idx), len(tc.s.Idx))
			}
			for i := range tc.s.Idx {
				if gotS.Idx[i] != tc.s.Idx[i] {
					t.Fatalf("Idx[%d] = %d, want %d", i, gotS.Idx[i], tc.s.Idx[i])
				}
			}
			for i := range tc.s.Vals {
				if math.Float64bits(gotS.Vals[i]) != math.Float64bits(tc.s.Vals[i]) {
					t.Fatalf("Vals[%d] not bit-exact", i)
				}
			}
			for i := range tc.s.Q {
				if gotS.Q[i] != tc.s.Q[i] {
					t.Fatalf("Q[%d] = %d, want %d", i, gotS.Q[i], tc.s.Q[i])
				}
			}
		})
	}
}

func TestQuantCheckpointRoundTrip(t *testing.T) {
	cp := QuantCheckpoint{
		Names: []string{"conv0/W", "conv0/b"},
		Sizes: []int{4, 2},
		Delta: QuantDelta{Width: 1, Scale: 0.03125, Q: []int16{1, -2, 3, -4, 5, -6}},
	}
	frame := AppendQuantCheckpointFrame(nil, cp)
	if got, want := len(frame), QuantCheckpointFrameSize(cp); got != want {
		t.Fatalf("frame is %d bytes, QuantCheckpointFrameSize says %d", got, want)
	}
	got, err := DecodeQuantCheckpointPayload(frame[HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("round trip: got %+v want %+v", got, cp)
	}
}

// TestDeltaStrictDecoding drives every malformed-block shape through the
// decoders: each must fail with a wire sentinel, never panic or accept.
func TestDeltaStrictDecoding(t *testing.T) {
	env := MeshMessage{From: 1, To: 2, Kind: "fedavg/download"}
	quant := AppendQuantFrame(nil, env, QuantDelta{Width: 1, Scale: 0.5, Q: []int16{1, 2, 3}})
	sparse := AppendSparseFrame(nil, env, SparseDelta{Dim: 8, Idx: []int32{2, 5}, Width: 0, Vals: []float64{1, 2}})
	envLen := 3*8 + 4 + len(env.Kind)

	mutate := func(frame []byte, off int, v byte) []byte {
		out := append([]byte(nil), frame...)
		out[HeaderSize+off] = v
		return out
	}
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"quant-bad-width", mutate(quant, envLen, 3)[HeaderSize:], ErrBadFrame},
		{"quant-width-zero", mutate(quant, envLen, 0)[HeaderSize:], ErrBadFrame},
		{"quant-truncated-values", quant[HeaderSize : len(quant)-1], ErrTruncated},
		{"quant-trailing", append(append([]byte(nil), quant[HeaderSize:]...), 0), ErrBadFrame},
		{"quant-empty", nil, ErrTruncated},
		{"sparse-bad-width", mutate(sparse, envLen+8, 9)[HeaderSize:], ErrBadFrame},
		{"sparse-truncated", sparse[HeaderSize : len(sparse)-3], ErrTruncated},
		{"sparse-trailing", append(append([]byte(nil), sparse[HeaderSize:]...), 0), ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if strings.HasPrefix(tc.name, "quant") {
				_, _, err = DecodeQuantPayload(tc.payload)
			} else {
				_, _, err = DecodeSparsePayload(tc.payload)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("sparse-count-exceeds-dim", func(t *testing.T) {
		bad := SparseDelta{Dim: 2, Idx: []int32{0, 1, 1}, Width: 0, Vals: []float64{1, 2, 3}}
		// Encode by hand: AppendSparseFrame would also produce k > dim.
		frame := AppendSparseFrame(nil, env, bad)
		if _, _, err := DecodeSparsePayload(frame[HeaderSize:]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("sparse-index-out-of-range", func(t *testing.T) {
		bad := SparseDelta{Dim: 4, Idx: []int32{1, 4}, Width: 0, Vals: []float64{1, 2}}
		frame := AppendSparseFrame(nil, env, bad)
		if _, _, err := DecodeSparsePayload(frame[HeaderSize:]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("sparse-indices-not-ascending", func(t *testing.T) {
		bad := SparseDelta{Dim: 8, Idx: []int32{5, 2}, Width: 0, Vals: []float64{1, 2}}
		frame := AppendSparseFrame(nil, env, bad)
		if _, _, err := DecodeSparsePayload(frame[HeaderSize:]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("sparse-indices-duplicate", func(t *testing.T) {
		bad := SparseDelta{Dim: 8, Idx: []int32{3, 3}, Width: 0, Vals: []float64{1, 2}}
		frame := AppendSparseFrame(nil, env, bad)
		if _, _, err := DecodeSparsePayload(frame[HeaderSize:]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("got %v, want ErrBadFrame", err)
		}
	})
	t.Run("quant-count-lies", func(t *testing.T) {
		// Claim 2^31 int8 values in a 3-byte tail: the count guard must
		// reject before allocating.
		p := append([]byte(nil), quant[HeaderSize:HeaderSize+envLen]...)
		p = append(p, 1)                  // width
		p = append(p, make([]byte, 8)...) // scale
		p = appendUint32(p, 1<<31-1)      // count
		p = append(p, 1, 2, 3)            // only 3 bytes of values
		if _, _, err := DecodeQuantPayload(p); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
}

func TestDeltaDense(t *testing.T) {
	q := QuantDelta{Width: 1, Scale: 0.5, Q: []int16{2, -4, 0, 127}}
	got := q.Dense(nil)
	want := []float64{1, -2, 0, 63.5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("quant Dense = %v, want %v", got, want)
	}
	// Capacity reuse: a big-enough dst must be reused, not reallocated.
	dst := make([]float64, 8)
	got = q.Dense(dst)
	if &got[0] != &dst[0] || len(got) != 4 {
		t.Fatal("quant Dense did not reuse dst capacity")
	}

	s := SparseDelta{Dim: 6, Idx: []int32{1, 4}, Width: 0, Vals: []float64{2.5, -1.5}}
	gotS := s.Dense(nil)
	wantS := []float64{0, 2.5, 0, 0, -1.5, 0}
	if !reflect.DeepEqual(gotS, wantS) {
		t.Fatalf("sparse Dense = %v, want %v", gotS, wantS)
	}
	// Reused dst must be zeroed where coordinates were dropped.
	dirty := []float64{9, 9, 9, 9, 9, 9}
	gotS = s.Dense(dirty)
	if !reflect.DeepEqual(gotS, wantS) {
		t.Fatalf("sparse Dense over dirty dst = %v, want %v", gotS, wantS)
	}

	sq := SparseDelta{Dim: 4, Idx: []int32{0, 3}, Width: 2, Scale: 0.25, Q: []int16{-8, 12}}
	gotQ := sq.Dense(nil)
	wantQ := []float64{-2, 0, 0, 3}
	if !reflect.DeepEqual(gotQ, wantQ) {
		t.Fatalf("sparse quant Dense = %v, want %v", gotQ, wantQ)
	}
}

func TestReadAnyMeshFrame(t *testing.T) {
	plain := MeshMessage{From: 1, To: 2, Kind: "sac/share", ShareIdx: 3, Payload: []float64{1, 2, 3}}
	env := MeshMessage{From: 4, To: 5, Kind: "fedavg/download", ShareIdx: -1}
	q := QuantDelta{Width: 1, Scale: 0.5, Q: []int16{1, -1}}
	s := SparseDelta{Dim: 4, Idx: []int32{2}, Width: 0, Vals: []float64{7}}

	var stream []byte
	stream = AppendMeshFrame(stream, plain)
	stream = AppendQuantFrame(stream, env, q)
	stream = AppendSparseFrame(stream, env, s)
	r := bytes.NewReader(stream)

	var scratch []byte
	m, gotQ, gotS, scratch, err := ReadAnyMeshFrame(r, scratch)
	if err != nil || gotQ != nil || gotS != nil {
		t.Fatalf("frame 1: %v %v %v", err, gotQ, gotS)
	}
	if !reflect.DeepEqual(m, plain) {
		t.Fatalf("frame 1: got %+v", m)
	}
	m, gotQ, gotS, scratch, err = ReadAnyMeshFrame(r, scratch)
	if err != nil || gotQ == nil || gotS != nil {
		t.Fatalf("frame 2: %v %v %v", err, gotQ, gotS)
	}
	if m.From != 4 || gotQ.Width != 1 || len(gotQ.Q) != 2 {
		t.Fatalf("frame 2: got %+v %+v", m, gotQ)
	}
	_, gotQ, gotS, _, err = ReadAnyMeshFrame(r, scratch)
	if err != nil || gotQ != nil || gotS == nil {
		t.Fatalf("frame 3: %v %v %v", err, gotQ, gotS)
	}
	if gotS.Dim != 4 || gotS.Idx[0] != 2 || gotS.Vals[0] != 7 {
		t.Fatalf("frame 3: got %+v", gotS)
	}

	// A raft frame on a mesh stream is rejected by kind, by name.
	raftish := AppendHeader(nil, KindRaft, 0)
	_, _, _, _, err = ReadAnyMeshFrame(bytes.NewReader(raftish), nil)
	if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "kind raft") {
		t.Fatalf("raft frame on mesh stream: %v", err)
	}
}

func TestKindStringAndDebugHeader(t *testing.T) {
	for k, want := range map[Kind]string{
		KindRaft: "raft", KindMesh: "mesh", KindCheckpoint: "checkpoint",
		KindDeltaQuant: "delta-quant", KindDeltaSparse: "delta-sparse",
		KindCheckpointQuant: "checkpoint-quant", Kind(0xAB): "kind(0xab)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", byte(k), got, want)
		}
	}
	h := AppendHeader(nil, KindMesh, 52)
	if got := DebugHeader(h); got != "P2FW v1 mesh 52B" {
		t.Errorf("DebugHeader = %q", got)
	}
	if got := DebugHeader([]byte("XXXX00000000")); !strings.Contains(got, "invalid frame header") {
		t.Errorf("DebugHeader on garbage = %q", got)
	}
}

// TestQuantSizeAdvantage pins the acceptance-criterion ratio in closed
// form: an int8 frame is ≤ 0.25× the float64 mesh frame at model
// dimensions (the bench pair checks the same on measured bytes).
func TestQuantSizeAdvantage(t *testing.T) {
	for _, dim := range []int{1000, 100000} {
		f64 := HeaderSize + MeshPayloadSize("fedavg/download", dim)
		q8 := QuantFrameSize("fedavg/download", 1, dim)
		if 4*q8 > f64 {
			t.Errorf("dim %d: int8 frame %dB > 0.25× float64 frame %dB", dim, q8, f64)
		}
	}
}
