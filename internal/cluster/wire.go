// Package cluster shards pcd streams across nodes: rendezvous-hash
// stream→node assignment with request forwarding on the ingest path,
// static-seed membership with heartbeat health probes, cross-node pair
// migration reusing the runtime's quiesce-drain hand-off
// (repro.Pair.Handoff), and a fleet placement controller that packs
// streams onto the fewest nodes whose budgets hold the load — the
// paper's Eq. 4 objective (minimize idle→active transitions) lifted one
// level, so under light aggregate load whole machines go idle instead
// of just core managers.
//
// The wire protocol is one request/response exchange at a time per TCP
// connection, in two framings told apart by a frame's first byte.
// Heartbeats (hb/ok) are newline-delimited JSON objects, first byte
// '{'; they piggyback the routing override table and per-stream load
// report. Data frames (fwd/fok, mig/mok, err) are binary, big-endian:
//
//	magic(1)=0xFB  type(1)  bodyLen(4)
//	from, key, tenant, err      each len(2) + bytes, bounded
//	seq, accepted, shed, quarantined, itemCount   uint32 each
//	itemCount × ( len(4) + payload )
//
// A reader checks bodyLen against MaxFrameBytes before allocating and
// acts on a frame only once it has been read in full. Every frame is
// read into the connection's reused buffer (one over maxKeptBuf into
// its own), and a decoded frame's items are views of it: the node
// handles each frame before it reads the next, and the receiving stream
// copies what it admits into its own arena. Nothing on the wire path
// copies a payload.
//
// The same connections carry forwarded ingest items and migration
// hand-offs, so a stream's items arrive at the new owner in the order
// the old owner saw them.
package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Frame types. Every exchange is request → response on one connection.
const (
	// FrameHeartbeat announces liveness and piggybacks the sender's
	// addresses, routing epoch, override table, and stream load report.
	FrameHeartbeat = "hb"
	// FrameAck answers a heartbeat with the receiver's own view.
	FrameAck = "ok"
	// FrameForward ships ingest items for a stream to its owner.
	FrameForward = "fwd"
	// FrameForwardAck returns the owner's admission verdict.
	FrameForwardAck = "fok"
	// FrameMigrate ships a detached stream's unprocessed items to its
	// new owner (the cross-node half of the quiesce-drain hand-off).
	FrameMigrate = "mig"
	// FrameMigrateAck acknowledges a migration hand-off.
	FrameMigrateAck = "mok"
	// FrameError reports a frame the receiver could not serve.
	FrameError = "err"
)

// dataTypes maps a binary frame's type byte to its Frame.Type; index 0
// is unused so a zeroed header is never a valid frame.
var dataTypes = [...]string{1: FrameForward, FrameForwardAck, FrameMigrate, FrameMigrateAck, FrameError}

// Wire-protocol bounds, enforced by DecodeFrame and readFrame so a
// malformed or hostile peer cannot balloon memory.
const (
	// MaxFrameBytes bounds one encoded frame, header or newline included.
	MaxFrameBytes = 8 << 20
	// maxKeyLen mirrors the server's stream-key bound.
	maxKeyLen = 256
	// maxErrLen bounds an error message; longer ones are cut on encode.
	maxErrLen = 1024
	// maxItems bounds the items in one forward/migrate frame.
	maxItems = 1 << 16
	// maxTableEntries bounds the routes/loads maps.
	maxTableEntries = 1 << 13

	frameMagic = 0xFB
	headerLen  = 6 // magic, type, bodyLen
	// itemOverhead is what one item adds to a frame beyond its payload.
	itemOverhead = 4
)

// Frame is one cluster wire message. Fields are a union over the frame
// types; unused fields stay empty. Only the heartbeat fields have a
// JSON form.
type Frame struct {
	Type string `json:"t"`
	From string `json:"from,omitempty"` // sender node id
	// Heartbeat payload: the sender's listen addresses and routing view.
	Addr   string             `json:"addr,omitempty"`   // cluster wire address
	HTTP   string             `json:"http,omitempty"`   // HTTP ingest address (redirect target)
	Epoch  uint64             `json:"epoch,omitempty"`  // routing epoch
	Gen    uint64             `json:"gen,omitempty"`    // override-table generation
	Routes map[string]string  `json:"routes,omitempty"` // stream key → owner overrides
	Loads  map[string]float64 `json:"loads,omitempty"`  // owned stream → items/s
	// Forward / migrate payload. A decoded frame's Items alias the
	// buffer it was decoded from.
	Key   string   `json:"-"`
	Items [][]byte `json:"-"`
	// Tenant carries the authenticated tenant id on fwd/mig frames so
	// the owning node charges the right budget ("" on an open fleet).
	Tenant string `json:"-"`
	// Seq is the chunk index within one migration hand-off sequence: a
	// backlog split across mig frames carries Seq 0,1,2,… so the receiver
	// counts one migration per stream, not per chunk. Requeue re-ships
	// (retrying a previously failed hand-off) send Seq ≥ 1 — the stream
	// was already counted when its first chunk landed.
	Seq int `json:"-"`
	// Verdicts (fok / mok).
	Accepted    int `json:"-"`
	Shed        int `json:"-"`
	Quarantined int `json:"-"`
	// Error payload (err frames, or soft errors on acks).
	Error string `json:"-"`
}

var (
	errFrame = errors.New("cluster: malformed frame")
	// errTooLong is a frame whose declared (or newline-less) length
	// passes MaxFrameBytes: the stream cannot be resynchronized.
	errTooLong = errors.New("cluster: frame too long")
)

// EncodeFrame renders one frame: a newline-terminated JSON line for
// heartbeats and their acks, the binary layout for everything else.
func EncodeFrame(f Frame) ([]byte, error) { return appendFrame(nil, f) }

// appendFrame is EncodeFrame into dst's spare capacity.
func appendFrame(dst []byte, f Frame) ([]byte, error) {
	if f.Type == FrameHeartbeat || f.Type == FrameAck {
		line, err := json.Marshal(f)
		if err != nil {
			return dst, err
		}
		if len(line)+1 > MaxFrameBytes {
			return dst, fmt.Errorf("cluster: frame %q exceeds %d bytes", f.Type, MaxFrameBytes)
		}
		return append(append(dst, line...), '\n'), nil
	}
	typ := slices.Index(dataTypes[:], f.Type)
	if typ <= 0 {
		return dst, fmt.Errorf("cluster: cannot encode frame type %q", f.Type)
	}
	if len(f.From) > maxKeyLen || len(f.Key) > maxKeyLen || len(f.Tenant) > maxKeyLen || len(f.Items) > maxItems {
		return dst, fmt.Errorf("cluster: frame %q field over its bound", f.Type)
	}
	strs := [...]string{f.From, f.Key, f.Tenant, f.Error[:min(len(f.Error), maxErrLen)]}
	nums := [...]int{f.Seq, f.Accepted, f.Shed, f.Quarantined, len(f.Items)}
	size := headerLen + 2*len(strs) + 4*len(nums)
	for _, s := range strs {
		size += len(s)
	}
	for _, v := range nums {
		if v < 0 || v > math.MaxInt32 {
			return dst, fmt.Errorf("cluster: frame %q count %d out of range", f.Type, v)
		}
	}
	for _, it := range f.Items {
		size += itemOverhead + len(it)
	}
	if size > MaxFrameBytes {
		return dst, fmt.Errorf("cluster: frame %q exceeds %d bytes", f.Type, MaxFrameBytes)
	}
	// Sized before anything is written: one growth at most, and a
	// refused frame leaves dst untouched.
	dst = append(slices.Grow(dst, size), frameMagic, byte(typ))
	dst = binary.BigEndian.AppendUint32(dst, uint32(size-headerLen))
	for _, s := range strs {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	for _, v := range nums {
		dst = binary.BigEndian.AppendUint32(dst, uint32(v))
	}
	for _, it := range f.Items {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(it)))
		dst = append(dst, it...)
	}
	return dst, nil
}

// DecodeFrame parses and validates one whole frame: a heartbeat line
// (with or without the trailing newline) or a binary data frame, whose
// Items then alias b. It enforces the protocol bounds — frame size, key
// length, item count, table sizes, no trailing bytes — so the caller
// can trust a decoded frame's shape.
func DecodeFrame(b []byte) (Frame, error) {
	if len(b) == 0 || len(b) > MaxFrameBytes {
		return Frame{}, errFrame
	}
	if b[0] != frameMagic {
		return decodeHeartbeat(b)
	}
	if len(b) < headerLen || int(binary.BigEndian.Uint32(b[2:])) != len(b)-headerLen {
		return Frame{}, fmt.Errorf("%w: length mismatch", errFrame)
	}
	return decodeData(nil, b[1], b[headerLen:])
}

// frameDecoder is one connection's decode state, reused from frame to
// frame. A nil *frameDecoder decodes into fresh memory.
type frameDecoder struct {
	strs  map[string]string // interned From, Key and Tenant
	items [][]byte          // the last frame's item headers
	body  []byte            // the last frame's body
}

const maxInternedKeys = 1024 // bounds strs, as on the raw-TCP face

// intern returns b as a string, copied only the first time d sees it.
func (d *frameDecoder) intern(b []byte) string {
	if d == nil {
		return string(b)
	}
	s, ok := d.strs[string(b)]
	if !ok {
		if d.strs == nil || len(d.strs) >= maxInternedKeys {
			d.strs = make(map[string]string)
		}
		s = string(b)
		d.strs[s] = s
	}
	return s
}

// readFrame reads the next frame off a connection, sniffing its framing
// from the first byte, and decodes it through d. The Items slice and,
// for a frame within maxKeptBuf, the payloads are d's: valid until the
// next read.
// An error wrapping errFrame leaves the stream in sync (the frame was
// consumed whole); any other error does not.
func readFrame(br *bufio.Reader, d *frameDecoder) (Frame, error) {
	first, err := br.Peek(1)
	if err != nil {
		return Frame{}, err
	}
	if first[0] != frameMagic {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A line longer than the reader's buffer: rare (a heartbeat
			// carrying thousands of routes), so it pays its own copy.
			long := append([]byte(nil), line...)
			for err == bufio.ErrBufferFull && len(long) < MaxFrameBytes {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err == bufio.ErrBufferFull || len(line) > MaxFrameBytes {
			return Frame{}, errTooLong
		}
		if err != nil {
			return Frame{}, unexpectedEOF(err)
		}
		return decodeHeartbeat(line)
	}
	hdr, err := br.Peek(headerLen)
	if err != nil {
		return Frame{}, unexpectedEOF(err)
	}
	typ, n := hdr[1], binary.BigEndian.Uint32(hdr[2:])
	if n > MaxFrameBytes-headerLen {
		return Frame{}, fmt.Errorf("%w: %d-byte body declared", errTooLong, n)
	}
	br.Discard(headerLen)
	var body []byte
	if d != nil && n <= maxKeptBuf {
		d.body = slices.Grow(d.body[:0], int(n))[:n]
		body = d.body
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(br, body); err != nil {
		return Frame{}, unexpectedEOF(err)
	}
	return decodeData(d, typ, body)
}

// unexpectedEOF marks an end of stream inside a frame, so it reads as a
// truncation rather than a clean hangup between frames.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeData parses a binary frame's body through d. Items are
// cap-clipped sub-slices of body: appending to one can never reach its
// neighbour.
func decodeData(d *frameDecoder, typ byte, body []byte) (Frame, error) {
	if typ == 0 || int(typ) >= len(dataTypes) {
		return Frame{}, fmt.Errorf("%w: unknown type %d", errFrame, typ)
	}
	f := Frame{Type: dataTypes[typ]}
	off := 0
	for _, s := range [...]struct {
		dst *string
		max int
	}{{&f.From, maxKeyLen}, {&f.Key, maxKeyLen}, {&f.Tenant, maxKeyLen}, {&f.Error, maxErrLen}} {
		if len(body)-off < 2 {
			return Frame{}, fmt.Errorf("%w: short body", errFrame)
		}
		n := int(binary.BigEndian.Uint16(body[off:]))
		off += 2
		if n > s.max || n > len(body)-off {
			return Frame{}, fmt.Errorf("%w: oversized field", errFrame)
		}
		if s.dst == &f.Error {
			f.Error = string(body[off : off+n]) // free text: not interned
		} else {
			*s.dst = d.intern(body[off : off+n])
		}
		off += n
	}
	var count int
	for _, dst := range [...]*int{&f.Seq, &f.Accepted, &f.Shed, &f.Quarantined, &count} {
		if len(body)-off < 4 {
			return Frame{}, fmt.Errorf("%w: short body", errFrame)
		}
		v := binary.BigEndian.Uint32(body[off:])
		if v > math.MaxInt32 {
			return Frame{}, fmt.Errorf("%w: count out of range", errFrame)
		}
		*dst = int(v)
		off += 4
	}
	// Every item costs at least its length prefix, so a lying count is
	// caught before it sizes an allocation.
	if count > maxItems || count > (len(body)-off)/itemOverhead {
		return Frame{}, fmt.Errorf("%w: %d items", errFrame, count)
	}
	if (f.Type == FrameForward || f.Type == FrameMigrate) && f.Key == "" {
		return Frame{}, fmt.Errorf("%w: %s without key", errFrame, f.Type)
	}
	if count > 0 && d != nil {
		d.items = slices.Grow(d.items[:0], count)[:count]
		f.Items = d.items
	} else if count > 0 {
		f.Items = make([][]byte, count)
	}
	for i := range f.Items {
		if len(body)-off < itemOverhead {
			return Frame{}, fmt.Errorf("%w: short body", errFrame)
		}
		n := int(binary.BigEndian.Uint32(body[off:]))
		off += itemOverhead
		if n < 0 || n > len(body)-off {
			return Frame{}, fmt.Errorf("%w: item %d overruns frame", errFrame, i)
		}
		f.Items[i] = body[off : off+n : off+n]
		off += n
	}
	if off != len(body) {
		return Frame{}, fmt.Errorf("%w: %d trailing bytes", errFrame, len(body)-off)
	}
	return f, nil
}

// decodeHeartbeat parses and bounds-checks one JSON heartbeat or ack.
func decodeHeartbeat(line []byte) (Frame, error) {
	var f Frame
	if err := json.Unmarshal(line, &f); err != nil {
		return Frame{}, fmt.Errorf("%w: %v", errFrame, err)
	}
	if f.Type != FrameHeartbeat && f.Type != FrameAck {
		return Frame{}, fmt.Errorf("%w: unknown type %q", errFrame, f.Type)
	}
	if len(f.From) > maxKeyLen || len(f.Addr) > maxKeyLen || len(f.HTTP) > maxKeyLen {
		return Frame{}, fmt.Errorf("%w: oversized field", errFrame)
	}
	if len(f.Routes) > maxTableEntries || len(f.Loads) > maxTableEntries {
		return Frame{}, fmt.Errorf("%w: oversized table", errFrame)
	}
	for k := range f.Routes {
		if len(k) > maxKeyLen {
			return Frame{}, fmt.Errorf("%w: oversized route key", errFrame)
		}
	}
	for k := range f.Loads {
		if len(k) > maxKeyLen {
			return Frame{}, fmt.Errorf("%w: oversized load key", errFrame)
		}
	}
	if f.Type == FrameHeartbeat && f.From == "" {
		return Frame{}, fmt.Errorf("%w: heartbeat without sender", errFrame)
	}
	return f, nil
}

// EncodeItems and DecodeItems are identity shims: Frame.Items carries
// raw payloads now. Their only caller is bench/e2e/layers.go, which this
// package may not change; a later benchmark PR deletes them.
func EncodeItems(items [][]byte) [][]byte { return items }

// DecodeItems: see EncodeItems.
func DecodeItems(items [][]byte) [][]byte { return items }
