// Package jsonscan is the read position the request decoders share: the
// /v1/predict envelope in package core and graph.Spec both scan their
// canonical wire form with one Cursor (DESIGN.md §15).
//
// A Cursor recognises a subset of JSON: containers, unescaped ASCII strings,
// plain integers that fit a given width, and any JSON whitespace. Every
// method reports false on anything else — escape, non-ASCII byte, null,
// fraction, exponent, overflow, malformed JSON — and the caller hands the
// whole input to encoding/json instead, so a refusal costs speed, never
// correctness.
package jsonscan

// Cursor is a read position in a JSON text.
type Cursor struct {
	b []byte
	i int
}

// New returns a cursor at the start of b.
func New(b []byte) Cursor { return Cursor{b: b} }

// Pos is the offset of the next unread byte.
func (c *Cursor) Pos() int { return c.i }

// End skips trailing whitespace and reports whether the text is used up.
func (c *Cursor) End() bool {
	c.ws()
	return c.i == len(c.b)
}

// Object reads an object member by member. field is called with each key
// and the cursor at its value; it reads the value and returns the key's
// index among the keys it knows (0–63), or ok false on a key it does not
// know or a value it could not read. Object reports false on that, on a key
// seen twice, and on malformed syntax.
func (c *Cursor) Object(field func(key []byte) (index int, ok bool)) bool {
	var seen uint64
	empty, ok := c.Open('{', '}')
	for more := !empty; ok && more; {
		key, keyOK := c.key()
		if !keyOK {
			return false
		}
		f, fieldOK := field(key)
		if !fieldOK || seen&(1<<f) != 0 {
			return false
		}
		seen |= 1 << f
		more, ok = c.Sep('}')
	}
	return ok
}

// ws skips JSON whitespace.
func (c *Cursor) ws() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\n', '\t', '\r':
			c.i++
		default:
			return
		}
	}
}

// Open consumes an opening bracket and the whitespace after it, and the
// closing bracket too when the container is empty.
func (c *Cursor) Open(open, close byte) (empty, ok bool) {
	c.ws()
	if c.i >= len(c.b) || c.b[c.i] != open {
		return false, false
	}
	c.i++
	c.ws()
	if c.i < len(c.b) && c.b[c.i] == close {
		c.i++
		return true, true
	}
	return false, true
}

// Sep consumes what follows a container's item: a comma (more is true, the
// cursor is at the next item) or the closing bracket.
func (c *Cursor) Sep(close byte) (more, ok bool) {
	c.ws()
	if c.i >= len(c.b) {
		return false, false
	}
	switch c.b[c.i] {
	case ',':
		c.i++
		c.ws()
		return true, true
	case close:
		c.i++
		return false, true
	}
	return false, false
}

// key reads an object key and its colon, leaving the cursor at the value.
func (c *Cursor) key() ([]byte, bool) {
	k, ok := c.Str()
	c.ws()
	if !ok || c.i >= len(c.b) || c.b[c.i] != ':' {
		return nil, false
	}
	c.i++
	c.ws()
	return k, true
}

// Str reads a string of unescaped ASCII; the result aliases the input.
func (c *Cursor) Str() ([]byte, bool) {
	if c.i >= len(c.b) || c.b[c.i] != '"' {
		return nil, false
	}
	start := c.i + 1
	for i := start; i < len(c.b); i++ {
		switch ch := c.b[i]; {
		case ch == '"':
			c.i = i + 1
			return c.b[start:i], true
		case ch < 0x20 || ch >= 0x80 || ch == '\\':
			return nil, false
		}
	}
	return nil, false
}

// Integer reads -?(0|[1-9][0-9]*) as a two's-complement value of the given
// width. A fraction or exponent after it fails the next Sep.
func (c *Cursor) Integer(bits int) (int64, bool) {
	i := c.i
	neg := i < len(c.b) && c.b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v uint64
	for ; i < len(c.b) && c.b[i]-'0' <= 9; i++ {
		if v > (1<<63)/10 {
			return 0, false
		}
		v = v*10 + uint64(c.b[i]-'0')
	}
	max := uint64(1)<<(bits-1) - 1
	if neg {
		max++
	}
	if i == start || (c.b[start] == '0' && i > start+1) || v > max {
		return 0, false
	}
	c.i = i
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}
