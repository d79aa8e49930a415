package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// rawFrame hand-assembles a binary frame, so tests can build the
// malformed ones EncodeFrame refuses to. nums is seq, accepted, shed,
// quarantined, item count.
func rawFrame(typ byte, from, key, tenant, errMsg string, nums [5]uint32, items ...[]byte) []byte {
	var body []byte
	for _, s := range []string{from, key, tenant, errMsg} {
		body = binary.BigEndian.AppendUint16(body, uint16(len(s)))
		body = append(body, s...)
	}
	for _, v := range nums {
		body = binary.BigEndian.AppendUint32(body, v)
	}
	for _, it := range items {
		body = binary.BigEndian.AppendUint32(body, uint32(len(it)))
		body = append(body, it...)
	}
	b := []byte{frameMagic, typ}
	b = binary.BigEndian.AppendUint32(b, uint32(len(body)))
	return append(b, body...)
}

// sameFrame is DeepEqual up to nil-versus-empty tables, which JSON's
// omitempty does not preserve.
func sameFrame(a, b Frame) bool {
	for _, f := range []*Frame{&a, &b} {
		if len(f.Routes) == 0 {
			f.Routes = nil
		}
		if len(f.Loads) == 0 {
			f.Loads = nil
		}
	}
	return reflect.DeepEqual(a, b)
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHeartbeat, From: "a", Addr: "127.0.0.1:9", HTTP: "127.0.0.1:8",
			Epoch: 3, Gen: 2, Routes: map[string]string{"s1": "b"},
			Loads: map[string]float64{"s1": 42.5}},
		{Type: FrameAck, From: "b", Epoch: 1},
		{Type: FrameForward, From: "a", Key: "s1", Tenant: "acme", Items: [][]byte{[]byte("x"), []byte("y")}},
		{Type: FrameForwardAck, From: "b", Key: "s1", Accepted: 2, Shed: 1, Quarantined: 3},
		{Type: FrameMigrate, From: "a", Key: "s1", Seq: 7, Items: [][]byte{{0, 1, 2}, {}, {'\n', frameMagic}}},
		{Type: FrameMigrateAck, From: "b", Key: "s1", Accepted: 1},
		{Type: FrameError, From: "b", Error: "nope"},
	}
	var stream []byte
	for _, f := range frames {
		b, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode %q: %v", f.Type, err)
		}
		if json := b[0] == '{'; json != (f.Type == FrameHeartbeat || f.Type == FrameAck) {
			t.Fatalf("encode %q: wrong framing, first byte %#x", f.Type, b[0])
		}
		got, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("decode %q: %v", f.Type, err)
		}
		if !sameFrame(got, f) {
			t.Fatalf("round trip %q: got %+v want %+v", f.Type, got, f)
		}
		stream = append(stream, b...)
	}
	// The same frames back to back on one connection: the sniff keeps
	// the two framings apart and every frame ends where the next begins,
	// decoded through the connection's reused state.
	br := bufio.NewReaderSize(bytes.NewReader(stream), 16)
	var dec frameDecoder
	for _, f := range frames {
		got, err := readFrame(br, &dec)
		if err != nil || !sameFrame(got, f) {
			t.Fatalf("stream read %q: got %+v, %v", f.Type, got, err)
		}
	}
	if _, err := readFrame(br, &dec); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestFrameDecoderInternIsBounded: a connection's string table never
// holds more than maxInternedKeys entries however many distinct keys a
// peer sends, every key still decodes to its own value, and a frame
// whose strings the table already holds decodes without allocating.
func TestFrameDecoderInternIsBounded(t *testing.T) {
	var dec frameDecoder
	for i := 0; i < 3*maxInternedKeys; i++ {
		key := fmt.Sprintf("k%d", i)
		b := rawFrame(2, "n2", key, "", "", [5]uint32{0, 1, 0, 0, 0})
		f, err := decodeData(&dec, b[1], b[headerLen:])
		if err != nil || f.Key != key || f.From != "n2" {
			t.Fatalf("frame %d: %+v, %v", i, f, err)
		}
		if len(dec.strs) > maxInternedKeys {
			t.Fatalf("after %d keys the table holds %d, bound %d", i+1, len(dec.strs), maxInternedKeys)
		}
	}
	fwd := rawFrame(1, "n1", "s", "acme", "", [5]uint32{0, 0, 0, 0, 2}, []byte("x"), []byte("y"))
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeData(&dec, fwd[1], fwd[headerLen:]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("decoding a frame of known strings allocates %.1f times", allocs)
	}
}

// TestDecodeItemsRoundTrip: decoded items are the sender's bytes, each a
// cap-clipped view into the one buffer the frame was decoded from.
func TestDecodeItemsRoundTrip(t *testing.T) {
	in := [][]byte{[]byte("hello"), {}, {0xff, 0x00}}
	b, err := EncodeFrame(Frame{Type: FrameForward, From: "a", Key: "s", Items: EncodeItems(in)})
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	out := DecodeItems(f.Items)
	if len(out) != len(in) {
		t.Fatalf("len %d want %d", len(out), len(in))
	}
	for i := range in {
		if !bytes.Equal(out[i], in[i]) {
			t.Fatalf("item %d: %q want %q", i, out[i], in[i])
		}
		if cap(out[i]) != len(out[i]) {
			t.Fatalf("item %d: cap %d beyond len %d reaches its neighbour", i, cap(out[i]), len(out[i]))
		}
	}
	if !inside(out[0], b) || !inside(out[2], b) {
		t.Fatal("decoded items were copied out of the frame buffer")
	}
}

// inside reports whether an item's bytes lie within buf.
func inside(item, buf []byte) bool {
	if len(item) == 0 || len(buf) == 0 {
		return len(item) == 0
	}
	p, lo := uintptr(unsafe.Pointer(&item[0])), uintptr(unsafe.Pointer(&buf[0]))
	return p >= lo && p+uintptr(len(item)) <= lo+uintptr(len(buf))
}

func TestDecodeFrameRejects(t *testing.T) {
	long := strings.Repeat("k", maxKeyLen+1)
	one := [5]uint32{0, 0, 0, 0, 1}
	cases := map[string][]byte{
		"empty":           nil,
		"not json":        []byte("{"),
		"unknown type":    []byte(`{"t":"zap"}`),
		"hb no sender":    []byte(`{"t":"hb"}`),
		"json data frame": []byte(`{"t":"fwd","from":"a","key":"s"}`),
		"oversized route": []byte(`{"t":"hb","from":"a","routes":{"` + long + `":"b"}}`),

		"header only":     {frameMagic, 1, 0, 0},
		"type zero":       rawFrame(0, "a", "s", "", "", [5]uint32{}),
		"type unknown":    rawFrame(byte(len(dataTypes)), "a", "s", "", "", [5]uint32{}),
		"fwd no key":      rawFrame(1, "a", "", "", "", [5]uint32{}),
		"mig no key":      rawFrame(3, "a", "", "", "", [5]uint32{}),
		"oversized key":   rawFrame(1, "a", long, "", "", [5]uint32{}),
		"oversized err":   rawFrame(5, "a", "", "", strings.Repeat("e", maxErrLen+1), [5]uint32{}),
		"negative":        rawFrame(2, "b", "s", "", "", [5]uint32{0, 1 << 31, 0, 0, 0}),
		"negative seq":    rawFrame(3, "a", "s", "", "", [5]uint32{1 << 31, 0, 0, 0, 0}),
		"count lies":      rawFrame(1, "a", "s", "", "", [5]uint32{0, 0, 0, 0, 2}, []byte("x")),
		"count oversize":  rawFrame(1, "a", "s", "", "", [5]uint32{0, 0, 0, 0, maxItems + 1}),
		"item overruns":   append(rawFrame(1, "a", "s", "", "", one), 0, 0, 0, 9, 'x'),
		"trailing bytes":  rawFrame(1, "a", "s", "", "", [5]uint32{}, []byte("x")),
		"short body":      rawFrame(1, "a", "s", "", "", one, []byte("x"))[:headerLen+5],
		"length too big":  append(rawFrame(1, "a", "s", "", "", one, []byte("x")), 'y'),
		"length too smal": rawFrame(1, "a", "s", "", "", one, []byte("xy"))[:headerLen+30],
	}
	for name, b := range cases {
		if _, err := DecodeFrame(b); !errors.Is(err, errFrame) {
			t.Errorf("%s: decode of %q: %v, want errFrame", name, b, err)
		}
	}
}

func TestEncodeFrameBoundsSize(t *testing.T) {
	huge := Frame{Type: FrameForward, From: "a", Key: "s", Items: [][]byte{make([]byte, MaxFrameBytes)}}
	if _, err := EncodeFrame(huge); err == nil {
		t.Fatal("oversized frame encoded")
	}
	for name, f := range map[string]Frame{
		"key over its bound": {Type: FrameForward, From: "a", Key: strings.Repeat("k", maxKeyLen+1)},
		"negative verdict":   {Type: FrameForwardAck, Accepted: -1},
		"unknown type":       {Type: "zap"},
	} {
		if _, err := EncodeFrame(f); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
	// The largest frame the encoder emits is one the decoder takes.
	fit := Frame{Type: FrameForward, From: "a", Key: "s", Items: [][]byte{make([]byte, maxChunkBytes-itemOverhead)}}
	b, err := EncodeFrame(fit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(b); err != nil {
		t.Fatalf("budget-sized frame (%d bytes) rejected: %v", len(b), err)
	}
}

// BenchmarkWireForward prices one forwarded batch across the codec:
// encode into a connection-owned buffer, decode into sub-slices.
// scripts/alloc_gate.sh holds it to its allocs/item budget.
func BenchmarkWireForward(b *testing.B) {
	const n = 64
	items := make([][]byte, n)
	for i := range items {
		items[i] = bytes.Repeat([]byte{byte(i)}, 64)
	}
	f := Frame{Type: FrameForward, From: "node-a", Key: "stream-0", Items: items}
	var buf []byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = appendFrame(buf[:0], f); err != nil {
			b.Fatal(err)
		}
		got, err := DecodeFrame(buf)
		if err != nil || len(got.Items) != n {
			b.Fatalf("decode: %d items, %v", len(got.Items), err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/item")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/item")
	b.ReportMetric(float64(len(buf))/n, "wireB/item")
}
