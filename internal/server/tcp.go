package server

import (
	"bytes"
	"errors"
	"io"
	"net"

	"repro/internal/tenant"
)

// The raw-TCP line protocol: one item per line, `<key> <payload>\n`.
// It exists for producers that cannot afford HTTP framing (the paper's
// device-driver motivation, §I). Nothing is acknowledged, so the
// protocol's only backpressure is the kernel's: while a batch waits
// out a full pair (putAll's bounded wait on the drain its overflow
// forced) the connection's reader is not reading, the socket buffers
// fill, and the sender's writes slow down. Other connections and
// streams are not held up. Items that still find no room after the
// bound are dropped and counted (pcd_shed_total{proto="tcp"}), as are
// lines over a tenant's rate budget. Malformed lines are counted and
// skipped.

// acceptTCP runs the raw-TCP accept loop until the listener closes.
func (s *Server) acceptTCP(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.tcpWG.Add(1)
		go func() {
			defer s.tcpWG.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				conn.Close()
			}()
			s.serveTCP(conn)
		}()
	}
}

var errLineTooLong = errors.New("line exceeds MaxBodyBytes")

// lineReader hands out a connection's bytes in whole lines, as many as
// one Read delivered at a time.
type lineReader struct {
	r      io.Reader
	buf    []byte
	lo, hi int   // buf[lo:hi] is read and not yet handed out
	max    int   // a line this long without its newline is refused
	err    error // the Read error, reported once no whole line is left
}

// next returns the buffered bytes through the last newline — every
// complete line on hand — or, with one set, through the first. It reads
// from the connection only when no complete line is buffered. A final
// line that EOF leaves unterminated is returned as it stands. The
// result aliases the read buffer and is valid until the next call.
func (lr *lineReader) next(one bool) ([]byte, error) {
	for {
		pending := lr.buf[lr.lo:lr.hi]
		var end int
		if one {
			end = bytes.IndexByte(pending, '\n')
		} else {
			end = bytes.LastIndexByte(pending, '\n')
		}
		if end >= 0 {
			lr.lo += end + 1
			return pending[:end+1], nil
		}
		if lr.err != nil {
			if lr.err == io.EOF && len(pending) > 0 {
				lr.lo = lr.hi
				return pending, nil
			}
			return nil, lr.err
		}
		if len(pending) >= lr.max {
			return nil, errLineTooLong
		}
		if lr.lo > 0 {
			lr.hi = copy(lr.buf, pending)
			lr.lo = 0
		}
		if lr.hi == len(lr.buf) {
			grown := make([]byte, min(2*len(lr.buf), lr.max))
			copy(grown, pending)
			lr.buf = grown
		}
		n, err := lr.r.Read(lr.buf[lr.hi:])
		lr.hi += n
		lr.err = err
	}
}

// tcpKey is one stream key as a connection knows it: the interned
// string and the headers of the chunk's items for it, in arrival order.
type tcpKey struct {
	key       string
	items     [][]byte
	forwarded bool // the chunk's lines for the key went to its owner
}

// maxInternedKeys bounds the key table a connection carries from one
// chunk to the next; a client cycling through more keys than this has
// the table rebuilt as it goes.
const maxInternedKeys = 1024

// tcpConn is one connection's ingest state, reused from chunk to chunk.
type tcpConn struct {
	s        *Server
	tn       *tenant.Tenant
	tenantID string
	keys     map[string]*tcpKey
	// The chunk's valid lines: each one's key, and its payload, a view
	// of the read buffer.
	lineKeys []*tcpKey
	payloads [][]byte
	active   []*tcpKey // keys with items in the current chunk, by first appearance
}

// serveTCP consumes one connection's lines until EOF, error, or drain.
// In cluster mode every batch is routed as HTTP's are (forwarded to its
// owner when the key hashes elsewhere, admitted here when the owner is
// unreachable) — the owner's sheds are its own accounting.
//
// With a tenant registry the connection authenticates once, up front:
// its first line must be `auth <api-key>` and a bad key closes the
// connection (the TCP face of HTTP's 401). Rate-shed lines are dropped
// and counted per tenant.
func (s *Server) serveTCP(conn net.Conn) {
	lr := &lineReader{r: conn, max: int(s.cfg.MaxBodyBytes)}
	lr.buf = make([]byte, min(64<<10, lr.max))
	c := &tcpConn{s: s, keys: make(map[string]*tcpKey)}
	if reg := s.cfg.Tenants; reg != nil {
		authLine, err := lr.next(true)
		if err != nil {
			return
		}
		const prefix = "auth "
		authLine = bytes.TrimRight(authLine, "\r\n")
		if !bytes.HasPrefix(authLine, []byte(prefix)) {
			s.tcpMalformed.Add(1)
			return
		}
		if c.tn = reg.Authorize(string(authLine[len(prefix):])); c.tn == nil {
			return // counted in the registry's auth failures
		}
		c.tenantID = c.tn.ID()
	}
	for {
		chunk, err := lr.next(false)
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				s.cfg.Logf("pcd: tcp %s: %v, closing", conn.RemoteAddr(), err)
			}
			return
		}
		if s.draining.Load() {
			return
		}
		c.ingest(chunk)
	}
}

// ingest admits every line of chunk: validate, charge the tenant's rate
// budget once for the lot, forward the lines of keys another node owns
// (cluster mode), and hand each local key's items to its stream as one
// batch, which copies them into its arena before the next Read
// overwrites the buffer chunk aliases. Lines of one
// key keep their order; every line ends up in exactly one of
// tcp_malformed, shed_tcp, a forwarded batch or a local one.
func (c *tcpConn) ingest(chunk []byte) {
	s := c.s
	if len(c.keys) > maxInternedKeys {
		clear(c.keys) // nothing references a key between chunks
	}
	c.lineKeys, c.payloads = c.lineKeys[:0], c.payloads[:0]
	for len(chunk) > 0 {
		var line []byte
		line, chunk, _ = bytes.Cut(chunk, newline)
		line = bytes.TrimSuffix(line, []byte{'\r'})
		sp := bytes.IndexByte(line, ' ')
		var k *tcpKey
		if sp > 0 {
			k = c.intern(line[:sp])
		}
		if k == nil {
			s.tcpMalformed.Add(1)
			continue
		}
		c.lineKeys = append(c.lineKeys, k)
		c.payloads = append(c.payloads, line[sp+1:])
	}
	admitted := len(c.payloads)
	if c.tn != nil && admitted > 0 {
		admitted = c.tn.AdmitRate(admitted)
		if shed := len(c.payloads) - admitted; shed > 0 {
			c.tn.CountShedRate(shed)
			s.shedTCP.Add(uint64(shed))
		}
	}
	local := c.payloads[:admitted]
	if s.router != nil {
		local = c.forward(local)
	}
	c.group(local)
	for _, k := range c.active {
		// An error is a full pair table (or a key that belongs to
		// another tenant): drop; creation failures are counted in
		// streamRejects.
		if res, err := s.ingestLocal(protoTCP, c.tenantID, k.key, k.items); err == nil {
			s.ingestedTCP.Add(uint64(res.Accepted))
			s.shedTCP.Add(uint64(res.Shed))
			s.quarantinedTCP.Add(uint64(res.Quarantined))
		}
	}
	c.ungroup()
}

// forward sends the lines of keys another node owns to their owners,
// one batch per key, as views of the read buffer: the owner's
// connection encodes them and keeps nothing. It moves the lines that
// stay here (keys this node owns or hosts, and keys whose owner is
// unreachable) to the front of lines, in order, and returns them.
func (c *tcpConn) forward(lines [][]byte) [][]byte {
	c.group(lines)
	for _, k := range c.active {
		_, _, k.forwarded = c.s.forward(c.tenantID, k.key, k.items)
	}
	c.ungroup()
	kept := 0
	for i, p := range lines {
		if k := c.lineKeys[i]; !k.forwarded {
			c.lineKeys[kept], lines[kept] = k, p
			kept++
		}
	}
	return lines[:kept]
}

// group appends each line to its key's items (c.lineKeys[i] is line
// i's key) and lists the keys in c.active by first appearance.
func (c *tcpConn) group(lines [][]byte) {
	for i, p := range lines {
		k := c.lineKeys[i]
		if len(k.items) == 0 {
			c.active = append(c.active, k)
		}
		k.items = append(k.items, p)
	}
}

// ungroup empties what group filled, keeping the slices for reuse.
func (c *tcpConn) ungroup() {
	for _, k := range c.active {
		k.items = k.items[:0]
	}
	c.active = c.active[:0]
}

// intern returns the connection's entry for a key, validating and
// copying it the first time it is seen (the map lookup by string(b)
// does not allocate). nil means the key is not a valid stream key.
func (c *tcpConn) intern(b []byte) *tcpKey {
	if k, ok := c.keys[string(b)]; ok {
		return k
	}
	key := string(b)
	if !c.s.validKey(key) {
		return nil
	}
	k := &tcpKey{key: key}
	c.keys[key] = k
	return k
}
