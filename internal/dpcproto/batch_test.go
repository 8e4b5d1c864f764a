package dpcproto

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"floodguard/internal/netpkt"
)

func sampleRecords() []Record {
	pkt := netpkt.NewSpoofGen(1, netpkt.FloodUDP, 48).Next()
	return []Record{
		Replay{DPID: 0xdeadbeef, InPort: 7, Frame: pkt.Marshal()},
		Rate{PPS: 123.5},
		Stats{Backlog: 42, Enqueued: 1000, Emitted: 900, Dropped: 58},
		Replay{DPID: 1, InPort: 0, Frame: []byte{}},
	}
}

func normalise(r Record) Record {
	if rp, ok := r.(Replay); ok && len(rp.Frame) == 0 {
		rp.Frame = []byte{}
		return rp
	}
	return r
}

// TestWriterMatchesWrite pins the Writer to the package-level wire
// format, record for record.
func TestWriterMatchesWrite(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		var legacy, batched bytes.Buffer
		var w *Writer
		if buffered {
			w = NewBufferedWriter(&batched, 0, -1)
		} else {
			w = NewWriter(&batched)
		}
		for _, rec := range sampleRecords() {
			if err := Write(&legacy, rec); err != nil {
				t.Fatal(err)
			}
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(legacy.Bytes(), batched.Bytes()) {
			t.Fatalf("buffered=%v: Writer bytes differ from Write bytes", buffered)
		}
	}
}

func TestWriteReplayMatchesWrite(t *testing.T) {
	frame := bytes.Repeat([]byte{0x5a}, 90)
	var legacy, typed bytes.Buffer
	if err := Write(&legacy, Replay{DPID: 77, InPort: 3, Frame: frame}); err != nil {
		t.Fatal(err)
	}
	w := NewWriter(&typed)
	if err := w.WriteReplay(77, 3, frame); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), typed.Bytes()) {
		t.Fatal("WriteReplay bytes differ from Write(Replay{...})")
	}
	if err := w.WriteReplay(1, 1, make([]byte, MaxPayload)); err == nil {
		t.Fatal("oversized WriteReplay accepted")
	}
}

func TestReaderRoundTrip(t *testing.T) {
	records := sampleRecords()
	var buf bytes.Buffer
	w := NewBufferedWriter(&buf, 0, -1)
	for _, rec := range records {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf, 0)
	for i, want := range records {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalise(got), normalise(want)) {
			t.Errorf("record %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("trailing Read error = %v, want io.EOF", err)
	}
}

// TestReplayFramesSurviveBufferReuse verifies the Reader's documented
// ownership contract: Replay frames must stay intact after later reads
// reuse the payload buffer.
func TestReplayFramesSurviveBufferReuse(t *testing.T) {
	frames := [][]byte{
		bytes.Repeat([]byte{0x11}, 100),
		bytes.Repeat([]byte{0x22}, 100),
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := Write(&buf, Replay{DPID: 1, Frame: f}); err != nil {
			t.Fatal(err)
		}
		if err := Write(&buf, Stats{Backlog: 9}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf, 0)
	var got [][]byte
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rp, ok := rec.(Replay); ok {
			got = append(got, rp.Frame)
		}
	}
	if len(got) != 2 {
		t.Fatalf("read %d replays, want 2", len(got))
	}
	for i, f := range frames {
		if !bytes.Equal(got[i], f) {
			t.Errorf("replay %d frame corrupted by buffer reuse", i)
		}
	}
}

func TestWriterRejectsOversizedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewBufferedWriter(&buf, 0, -1)
	if err := w.Write(Replay{Frame: make([]byte, MaxPayload)}); err == nil {
		t.Fatal("oversized record accepted")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized record leaked %d bytes onto the stream", buf.Len())
	}
}

// countingWriter counts Write calls (syscall proxy).
type countingWriter struct {
	mu     sync.Mutex
	writes int
	bytes  int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

func TestBufferedWriterCoalesces(t *testing.T) {
	var cw countingWriter
	w := NewBufferedWriter(&cw, 1<<20, -1)
	for i := 0; i < 100; i++ {
		if err := w.Write(Rate{PPS: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if cw.writes != 0 {
		t.Fatalf("records flushed before Flush: %d writes", cw.writes)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Fatalf("100 records took %d writes, want 1", cw.writes)
	}
}

func TestBufferedWriterAutoFlush(t *testing.T) {
	var cw countingWriter
	w := NewBufferedWriter(&cw, 1<<20, time.Millisecond)
	if err := w.Write(Rate{PPS: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		cw.mu.Lock()
		n := cw.writes
		cw.mu.Unlock()
		if n == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("auto-flush never fired")
}

// TestWriterConcurrentUse exercises the Writer from several goroutines
// under the race detector over a real socket.
func TestWriterConcurrentUse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan int, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- -1
			return
		}
		defer conn.Close()
		r := NewReader(conn, 0)
		n := 0
		for {
			if _, err := r.Read(); err != nil {
				done <- n
				return
			}
			n++
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := NewBufferedWriter(conn, 0, 100*time.Microsecond)
	const writers, perWriter = 4, 250
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := w.Write(Replay{DPID: uint64(g), Frame: []byte{byte(i)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if n := <-done; n != writers*perWriter {
		t.Fatalf("reader saw %d records, want %d", n, writers*perWriter)
	}
}

// --- allocation benchmarks for the sideband fast path ---

func BenchmarkWriteReplay(b *testing.B) {
	pkt := netpkt.NewSpoofGen(1, netpkt.FloodUDP, 64).Next()
	frame := pkt.Marshal()
	rec := Replay{DPID: 1, InPort: 2, Frame: frame}
	b.Run("package-write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Write(io.Discard, rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("writer", func(b *testing.B) {
		w := NewWriter(io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Write(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("buffered-writer", func(b *testing.B) {
		w := NewBufferedWriter(io.Discard, 0, -1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Write(rec); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("write-replay", func(b *testing.B) {
		w := NewBufferedWriter(io.Discard, 0, -1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.WriteReplay(1, 2, frame); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkReadStats(b *testing.B) {
	var one bytes.Buffer
	if err := Write(&one, Stats{Backlog: 1, Enqueued: 2, Emitted: 3, Dropped: 4}); err != nil {
		b.Fatal(err)
	}
	rec := one.Bytes()
	stream := bytes.Repeat(rec, 1024)
	b.Run("package-read", func(b *testing.B) {
		b.ReportAllocs()
		r := bytes.NewReader(stream)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				r.Reset(stream)
			}
			if _, err := Read(r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reader", func(b *testing.B) {
		b.ReportAllocs()
		raw := bytes.NewReader(stream)
		r := NewReader(raw, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				raw.Reset(stream)
			}
			if _, err := r.Read(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWriteReplayAllocatesNothing is the absolute witness for the
// sideband replay framing's 0 allocs/op budget, on the buffered writer
// the cache box and shim use.
func TestWriteReplayAllocatesNothing(t *testing.T) {
	pkt := netpkt.NewSpoofGen(1, netpkt.FloodUDP, 64).Next()
	frame := pkt.Marshal()
	w := NewBufferedWriter(io.Discard, 0, -1)
	if a := testing.AllocsPerRun(1000, func() {
		if err := w.WriteReplay(1, 2, frame); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("WriteReplay allocates %v, want 0", a)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}
