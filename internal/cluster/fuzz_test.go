package cluster

import (
	"bufio"
	"bytes"
	"slices"
	"testing"
)

// FuzzDecodeFrame hammers the wire-protocol decoder with arbitrary
// bytes: it must never panic; any frame it accepts is within the
// protocol bounds, has every item lying inside the input (sub-slices,
// never copies or out-of-bounds views), survives a re-encode /
// re-decode round trip unchanged, and decodes the same through a
// connection's reused decoder as fresh, into views of its buffer — the
// properties the node loop relies on.
func FuzzDecodeFrame(f *testing.F) {
	enc := func(fr Frame) []byte {
		b, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	fwd := enc(Frame{Type: FrameForward, From: "n1", Key: "s1", Tenant: "acme", Items: [][]byte{[]byte("hello"), []byte("world")}})
	seeds := [][]byte{
		[]byte(`{"t":"hb","from":"n1","addr":"127.0.0.1:7100","http":"127.0.0.1:7070","epoch":3,"gen":2,"routes":{"s1":"n2"},"loads":{"s1":42.5}}`),
		[]byte(`{"t":"ok","from":"n2","epoch":1,"gen":2}`),
		fwd,
		enc(Frame{Type: FrameForwardAck, From: "n2", Key: "s1", Accepted: 2}),
		enc(Frame{Type: FrameMigrate, From: "n1", Key: "s1", Seq: 1, Items: [][]byte{{0, 1, 2}}}),
		enc(Frame{Type: FrameMigrateAck, From: "n2", Key: "s1", Accepted: 1}),
		enc(Frame{Type: FrameError, From: "n2", Error: "draining"}),
		fwd[:len(fwd)-3],                   // truncated
		append(fwd[:len(fwd):len(fwd)], 0), // trailing byte
		[]byte(`{"t":"zap"}`),
		[]byte(`{`),
		[]byte(``),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if len(frame.From) > maxKeyLen || len(frame.Key) > maxKeyLen || len(frame.Tenant) > maxKeyLen ||
			len(frame.Error) > maxErrLen || len(frame.Items) > maxItems ||
			len(frame.Routes) > maxTableEntries || len(frame.Loads) > maxTableEntries ||
			frame.Seq < 0 || frame.Accepted < 0 || frame.Shed < 0 || frame.Quarantined < 0 {
			t.Fatalf("accepted frame breaks a protocol bound: %+v", frame)
		}
		if (frame.Type == FrameForward || frame.Type == FrameMigrate) && frame.Key == "" {
			t.Fatalf("accepted %s frame without a key", frame.Type)
		}
		for i, it := range frame.Items {
			if cap(it) != len(it) || !inside(it, data) {
				t.Fatalf("item %d (len %d, cap %d) is not a clipped view of the input", i, len(it), cap(it))
			}
		}
		again, err := EncodeFrame(frame)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v (%+v)", err, frame)
		}
		back, err := DecodeFrame(again)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v (%q)", err, again)
		}
		if !sameFrame(back, frame) {
			t.Fatalf("round trip changed frame: %+v → %+v", frame, back)
		}
		if data[0] == frameMagic {
			checkReusedDecode(t, data, frame)
		}
	})
}

// checkReusedDecode reads a binary frame twice off one connection
// through one decoder: both reads must agree with the fresh decode, and
// both reads' items must be views of the decoder's one reused buffer —
// nothing on the wire path copies a payload, so the stream that admits
// them owns the only copy, and must take it before the next read.
func checkReusedDecode(t *testing.T, data []byte, fresh Frame) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(append(slices.Clip(data), data...)))
	var dec frameDecoder
	var first [][]byte
	for i := 0; i < 2; i++ {
		got, err := readFrame(br, &dec)
		if err != nil || !sameFrame(got, fresh) {
			t.Fatalf("read %d through a reused decoder: %+v, %v; fresh decode %+v", i, got, err, fresh)
		}
		if i == 0 {
			first = slices.Clone(got.Items)
		}
		for j, it := range got.Items {
			if !inside(it, dec.body) {
				t.Fatalf("read %d: item %d is not a view of the decoder's buffer", i, j)
			}
		}
	}
	for j, it := range first {
		if !inside(it, dec.body) {
			t.Fatalf("item %d of the first read is not in the buffer the second reused", j)
		}
	}
}
