package netsim

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestLinkValidate(t *testing.T) {
	good := Link{Name: "ok", BitsPerSecond: 1000, Latency: time.Millisecond, Efficiency: 0.9}
	if err := good.Validate(); err != nil {
		t.Errorf("valid link rejected: %v", err)
	}
	bad := []Link{
		{BitsPerSecond: 0, Efficiency: 0.5},
		{BitsPerSecond: -5, Efficiency: 0.5},
		{BitsPerSecond: 100, Efficiency: 0},
		{BitsPerSecond: 100, Efficiency: 1.5},
		{BitsPerSecond: 100, Efficiency: 0.5, Latency: -time.Second},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad link %d accepted", i)
		}
	}
}

func TestPresetLinksValid(t *testing.T) {
	for _, l := range []Link{ShortDistance, LongDistance, Wireless} {
		if err := l.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", l.Name, err)
		}
	}
}

func TestSerializationTime(t *testing.T) {
	l := Link{BitsPerSecond: 8000, Efficiency: 1} // 1000 bytes/sec
	if got := l.SerializationTime(1000); got != time.Second {
		t.Errorf("1000 bytes at 1000B/s = %v, want 1s", got)
	}
	if got := l.SerializationTime(0); got != 0 {
		t.Errorf("0 bytes = %v, want 0", got)
	}
	if got := l.SerializationTime(-10); got != 0 {
		t.Errorf("negative bytes = %v, want 0", got)
	}
	// Efficiency halves throughput.
	l.Efficiency = 0.5
	if got := l.SerializationTime(1000); got != 2*time.Second {
		t.Errorf("with eff 0.5 = %v, want 2s", got)
	}
}

func TestOneWayAndRoundTrip(t *testing.T) {
	l := Link{BitsPerSecond: 8000, Efficiency: 1, Latency: 100 * time.Millisecond}
	if got := l.OneWayTime(1000); got != time.Second+100*time.Millisecond {
		t.Errorf("one way = %v", got)
	}
	want := 200*time.Millisecond + time.Second + 500*time.Millisecond
	if got := l.RoundTripTime(1000, 500); got != want {
		t.Errorf("round trip = %v, want %v", got, want)
	}
}

func TestModemIsMuchSlowerThanLAN(t *testing.T) {
	// A 100k-element vector of 1024-bit ciphertexts is ~12.8 MB; over the
	// modem that is hours, over the LAN well under a second. This ordering
	// is the crux of Figures 2 vs 3.
	bytes := int64(100_000 * 128)
	lan := ShortDistance.OneWayTime(bytes)
	modem := LongDistance.OneWayTime(bytes)
	if lan >= time.Second {
		t.Errorf("LAN transfer of 12.8MB took %v, expected < 1s", lan)
	}
	if modem < time.Hour/2 {
		t.Errorf("modem transfer of 12.8MB took %v, expected >= 30min", modem)
	}
}

func TestSerializationMonotonicProperty(t *testing.T) {
	l := LongDistance
	prop := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return l.SerializationTime(x) <= l.SerializationTime(y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// makespan is when the server finishes its last chunk: the end-to-end time
// with an empty reply and no decryption, less the empty reply's latency.
func makespan(p *Pipeline, link Link) time.Duration {
	return p.Finish(0, 0) - link.OneWayTime(0)
}

func TestPipelineSingleChunkMatchesSequential(t *testing.T) {
	link := Link{BitsPerSecond: 8000, Efficiency: 1, Latency: 10 * time.Millisecond}
	p, err := NewPipeline(link)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddChunk(2*time.Second, 1000, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	// enc 2s + ser 1s + lat 10ms + srv 3s
	want := 2*time.Second + time.Second + 10*time.Millisecond + 3*time.Second
	if got := makespan(p, link); got != want {
		t.Errorf("makespan = %v, want %v", got, want)
	}
	if seq := 2*time.Second + link.OneWayTime(1000) + 3*time.Second; seq != want {
		t.Errorf("sequential = %v, want %v", seq, want)
	}
}

func TestPipelineOverlapsStages(t *testing.T) {
	// Three equal chunks on a fast link: the pipeline should approach
	// max-stage-dominated time, strictly beating sequential.
	link := Link{BitsPerSecond: 1_000_000_000, Efficiency: 1, Latency: 0}
	p, err := NewPipeline(link)
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 10
	for i := 0; i < chunks; i++ {
		if err := p.AddChunk(100*time.Millisecond, 0, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	got := makespan(p, link)
	// Pipelined: ~ (chunks+1)*100ms. Sequential: 2*chunks*100ms = 2s.
	if got >= 2*time.Second {
		t.Errorf("pipeline %v did not beat sequential 2s", got)
	}
	if got < chunks*100*time.Millisecond {
		t.Errorf("pipeline %v beat the busiest stage, impossible", got)
	}
}

func TestPipelineNeverBeatsAnySingleStageSum(t *testing.T) {
	link := Link{BitsPerSecond: 8000, Efficiency: 1, Latency: 5 * time.Millisecond}
	prop := func(stages []struct {
		Enc uint16
		B   uint16
		Srv uint16
	}) bool {
		p, err := NewPipeline(link)
		if err != nil {
			return false
		}
		var sumEnc, sumSer, sumSrv time.Duration
		for _, s := range stages {
			enc := time.Duration(s.Enc) * time.Microsecond
			srv := time.Duration(s.Srv) * time.Microsecond
			if err := p.AddChunk(enc, int64(s.B), srv); err != nil {
				return false
			}
			sumEnc += enc
			sumSer += link.SerializationTime(int64(s.B))
			sumSrv += srv
		}
		m := makespan(p, link)
		if len(stages) == 0 {
			return m == 0
		}
		// Lower bounds: each stage's total busy time.
		if m < sumEnc || m < sumSer || m < sumSrv {
			return false
		}
		// Upper bound: full sequential execution.
		seq := sumEnc + sumSer + time.Duration(len(stages))*link.Latency + sumSrv
		return m <= seq
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPipelineRejectsNegative(t *testing.T) {
	p, err := NewPipeline(ShortDistance)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddChunk(-time.Second, 0, 0); err == nil {
		t.Error("negative enc should fail")
	}
	if err := p.AddChunk(0, -1, 0); err == nil {
		t.Error("negative bytes should fail")
	}
	if err := p.AddChunk(0, 0, -time.Second); err == nil {
		t.Error("negative srv should fail")
	}
}

func TestPipelineFinish(t *testing.T) {
	link := Link{BitsPerSecond: 8000, Efficiency: 1, Latency: 10 * time.Millisecond}
	p, _ := NewPipeline(link)
	_ = p.AddChunk(time.Second, 0, time.Second)
	total := p.Finish(1000, 50*time.Millisecond)
	// enc 1s + lat 10ms + srv 1s, then the reply and the decryption
	want := 2*time.Second + 10*time.Millisecond + link.OneWayTime(1000) + 50*time.Millisecond
	if total != want {
		t.Errorf("Finish = %v, want %v", total, want)
	}
}

func TestNewPipelineRejectsBadLink(t *testing.T) {
	if _, err := NewPipeline(Link{}); err == nil {
		t.Error("zero link should fail")
	}
}

func TestThrottlePacesWrites(t *testing.T) {
	var buf bytes.Buffer
	link := Link{BitsPerSecond: 8000, Efficiency: 1, Latency: 0} // 1000 B/s
	th, err := NewThrottle(&buf, link)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var slept time.Duration
	th.sleep = func(d time.Duration) {
		mu.Lock()
		slept += d
		mu.Unlock()
	}
	payload := make([]byte, 500)
	if _, err := th.Write(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Write(payload); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// 1000 bytes at 1000 B/s = 1s of pacing (allow the debt mechanism to
	// defer sub-millisecond remainders).
	if slept < 990*time.Millisecond || slept > 1010*time.Millisecond {
		t.Errorf("slept %v, want ~1s", slept)
	}
	if buf.Len() != 1000 {
		t.Errorf("wrote %d bytes", buf.Len())
	}
}

func TestThrottleReadPassesData(t *testing.T) {
	src := bytes.NewBufferString("hello throttled world")
	th, err := NewThrottle(src, Link{BitsPerSecond: 1 << 30, Efficiency: 1})
	if err != nil {
		t.Fatal(err)
	}
	th.sleep = func(time.Duration) {}
	got := make([]byte, 5)
	n, err := th.Read(got)
	if err != nil || n != 5 || string(got) != "hello" {
		t.Errorf("read %q (%d, %v)", got[:n], n, err)
	}
}

func TestNewThrottleRejectsBadLink(t *testing.T) {
	if _, err := NewThrottle(&bytes.Buffer{}, Link{}); err == nil {
		t.Error("bad link should fail")
	}
}
