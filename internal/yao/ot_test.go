package yao

import (
	"crypto/rand"
	"testing"
	"time"
)

func otSender(t testing.TB) *OTSender {
	t.Helper()
	s, err := NewOTSender(512)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOTTransfersChosenMessage(t *testing.T) {
	s := otSender(t)
	var m0, m1 [OTMessageSize]byte
	if _, err := rand.Read(m0[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := rand.Read(m1[:]); err != nil {
		t.Fatal(err)
	}
	n, e, x0, x1 := s.PublicParams()
	for choice := uint(0); choice <= 1; choice++ {
		recv, req, err := NewOTRequest(n, e, x0, x1, choice)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.Respond(req, m0, m1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := recv.Open(resp)
		if err != nil {
			t.Fatal(err)
		}
		want := m0
		if choice == 1 {
			want = m1
		}
		if got != want {
			t.Fatalf("choice %d: recovered wrong message", choice)
		}
		// The other branch must NOT be recoverable with the receiver's key:
		// opening the wrong slot yields garbage.
		other := m1
		if choice == 1 {
			other = m0
		}
		wrong := &OTResponse{M0: resp.M1, M1: resp.M0}
		leak, err := recv.Open(wrong)
		if err != nil {
			t.Fatal(err)
		}
		if leak == other {
			t.Fatal("receiver recovered the unchosen message: OT security broken")
		}
	}
}

func TestOTRequestsHideChoice(t *testing.T) {
	// The sender's view v is uniform regardless of the choice bit; at
	// minimum two requests for the same bit must differ (fresh randomness).
	s := otSender(t)
	n, e, x0, x1 := s.PublicParams()
	_, r1, err := NewOTRequest(n, e, x0, x1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := NewOTRequest(n, e, x0, x1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.V.Cmp(r2.V) == 0 {
		t.Fatal("two OT requests identical: choice would be linkable")
	}
}

func TestOTValidation(t *testing.T) {
	s := otSender(t)
	n, e, x0, x1 := s.PublicParams()
	if _, _, err := NewOTRequest(n, e, x0, x1, 2); err == nil {
		t.Error("choice 2 should fail")
	}
	if _, err := s.Respond(nil, [OTMessageSize]byte{}, [OTMessageSize]byte{}); err == nil {
		t.Error("nil request should fail")
	}
	if _, err := s.Respond(&OTRequest{V: n}, [OTMessageSize]byte{}, [OTMessageSize]byte{}); err == nil {
		t.Error("out-of-range request should fail")
	}
	recv, _, err := NewOTRequest(n, e, x0, x1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Open(nil); err == nil {
		t.Error("nil response should fail")
	}
	if _, err := NewOTSender(16); err == nil {
		t.Error("tiny modulus should fail")
	}
}

func TestFullTwoPartyComputation(t *testing.T) {
	// End to end: generator garbles the selected-sum circuit and inputs its
	// database values directly; the evaluator's selector bits arrive ONLY
	// via oblivious transfer; evaluation recovers the right sum.
	const n, vb = 4, 6
	values := []uint64{9, 25, 3, 41}
	selector := []uint8{1, 0, 1, 1} // sum = 9 + 3 + 41 = 53

	c, err := SelectedSumCircuit(n, vb)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := Garble(c)
	if err != nil {
		t.Fatal(err)
	}
	// Generator encodes its own (server) value wires.
	inputs := make([]uint8, c.NumInputs)
	for i, v := range values {
		for b := 0; b < vb; b++ {
			inputs[n+i*vb+b] = uint8(v >> b & 1)
		}
	}
	allLabels, err := gc.EncodeInputs(inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluator's selector labels come through real OTs (wires 0..n-1).
	sender := otSender(t)
	on, e, x0, x1 := sender.PublicParams()
	for i, b := range selector {
		recv, req, err := NewOTRequest(on, e, x0, x1, uint(b))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := sender.Respond(req, gc.wires[i].l0, gc.wires[i].l1)
		if err != nil {
			t.Fatal(err)
		}
		if allLabels[i], err = recv.Open(resp); err != nil {
			t.Fatal(err)
		}
	}

	out, err := gc.Evaluate(allLabels)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	for b, bit := range out {
		got |= uint64(bit) << b
	}
	if got != 53 {
		t.Fatalf("2PC selected sum = %d, want 53", got)
	}
}

func BenchmarkOTPerBit(b *testing.B) {
	// The measured constant behind the cost model's OTPerBit.
	s, err := NewOTSender(512)
	if err != nil {
		b.Fatal(err)
	}
	n, e, x0, x1 := s.PublicParams()
	var m0, m1 [OTMessageSize]byte
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		recv, req, err := NewOTRequest(n, e, x0, x1, uint(i%2))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := s.Respond(req, m0, m1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := recv.Open(resp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N)/1000, "us/ot")
}
