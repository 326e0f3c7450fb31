package graph

import (
	"encoding/json"
	"strconv"
)

// specWire has Spec's fields and tags but none of its methods, so
// encoding/json decodes it by reflection.
type specWire Spec

// UnmarshalJSON decodes the canonical wire form with a hand-written scanner
// and hands every other input to encoding/json unchanged, so whatever the
// scanner does not recognise gets exactly stdlib's value and stdlib's error
// (DESIGN.md §15). A destination that already holds slices goes to stdlib
// too: it decodes into the existing elements, which the scanner does not.
func (s *Spec) UnmarshalJSON(data []byte) error {
	if s.Nodes == nil && s.Edges == nil {
		c := cursor{b: data}
		if c.spec(s) {
			return nil
		}
	}
	return json.Unmarshal(data, (*specWire)(s))
}

// cursor is a read position in a Spec's JSON text. Its methods recognise a
// subset of JSON: objects with exactly Spec's and NodeSpec's keys, each at
// most once and in any order; unescaped ASCII strings; plain integers that
// fit their field; [from,to] edge pairs; any JSON whitespace. Every method
// reports false on anything else — unknown or re-cased key, duplicate key,
// escape, non-ASCII byte, null, fraction, exponent, overflow, an edge of
// another length, malformed JSON — and the caller falls back to stdlib.
type cursor struct {
	b []byte
	i int
}

// spec reads a whole Spec document, trailing whitespace included. s is
// written only on success, and only the fields the document names.
func (c *cursor) spec(s *Spec) bool {
	out := *s
	var seen uint8
	empty, ok := c.open('{', '}')
	for more := !empty; ok && more; {
		var key []byte
		if key, ok = c.key(); !ok {
			return false
		}
		var bit uint8
		switch string(key) {
		case "name":
			var v []byte
			v, ok = c.str()
			out.Name, bit = string(v), 1
		case "nodes":
			out.Nodes, ok = c.nodes()
			bit = 2
		case "edges":
			out.Edges, ok = c.edges()
			bit = 4
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		more, ok = c.sep('}')
	}
	c.ws()
	if !ok || c.i != len(c.b) {
		return false
	}
	*s = out
	return true
}

// nodes reads the "nodes" array. Like stdlib it returns an empty, non-nil
// slice for [].
func (c *cursor) nodes() ([]NodeSpec, bool) {
	empty, ok := c.open('[', ']')
	if !ok || empty {
		return []NodeSpec{}, ok
	}
	n, ok := c.count('{', '}')
	if !ok {
		return nil, false
	}
	out := make([]NodeSpec, n)
	for i := range out {
		if !c.node(&out[i]) {
			return nil, false
		}
		// count saw n items, so the last is followed by the bracket.
		if more, ok := c.sep(']'); !ok || more != (i < n-1) {
			return nil, false
		}
	}
	return out, true
}

// node reads one node object into n.
func (c *cursor) node(n *NodeSpec) bool {
	var seen uint8
	empty, ok := c.open('{', '}')
	for more := !empty; ok && more; {
		var key []byte
		if key, ok = c.key(); !ok {
			return false
		}
		var bit uint8
		var str []byte
		var num int64
		switch string(key) {
		case "op":
			str, ok = c.str()
			n.Op, bit = intern(str), 1
		case "label":
			str, ok = c.str()
			n.Label, bit = intern(str), 2
		case "out_channels":
			num, ok = c.integer(strconv.IntSize)
			n.OutChannels, bit = int(num), 4
		case "out_h":
			num, ok = c.integer(strconv.IntSize)
			n.OutH, bit = int(num), 8
		case "out_w":
			num, ok = c.integer(strconv.IntSize)
			n.OutW, bit = int(num), 16
		case "params":
			n.Params, ok = c.integer(64)
			bit = 32
		case "flops":
			n.FLOPs, ok = c.integer(64)
			bit = 64
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		more, ok = c.sep('}')
	}
	return ok
}

// edges reads the "edges" array of [from,to] pairs.
func (c *cursor) edges() ([][2]int, bool) {
	empty, ok := c.open('[', ']')
	if !ok || empty {
		return [][2]int{}, ok
	}
	n, ok := c.count('[', ']')
	if !ok {
		return nil, false
	}
	out := make([][2]int, n)
	for i := range out {
		if empty, ok := c.open('[', ']'); !ok || empty {
			return nil, false
		}
		for k := range out[i] {
			v, ok := c.integer(strconv.IntSize)
			// The pair's one comma, then its bracket.
			if more, sepOK := c.sep(']'); !ok || !sepOK || more != (k == 0) {
				return nil, false
			}
			out[i][k] = int(v)
		}
		if more, ok := c.sep(']'); !ok || more != (i < n-1) {
			return nil, false
		}
	}
	return out, true
}

// count sizes the array the cursor stands in: the number of open…close
// items before the array's own bracket. It does not move the cursor. It
// gives up on an escape or on nesting inside an item, both outside the
// grammar, so the allocation it sizes is never larger than the one stdlib
// would grow for the same bytes.
func (c *cursor) count(open, close byte) (int, bool) {
	n, inItem, inStr := 0, false, false
	for _, ch := range c.b[c.i:] {
		switch {
		case inStr:
			if ch == '\\' {
				return 0, false
			}
			inStr = ch != '"'
		case ch == '"':
			inStr = true
		case ch == open && !inItem:
			inItem = true
			n++
		case ch == close && inItem:
			inItem = false
		case ch == ']':
			return n, !inItem
		case ch == '{' || ch == '[':
			return 0, false
		}
	}
	return 0, false
}

// ws skips JSON whitespace.
func (c *cursor) ws() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\n', '\t', '\r':
			c.i++
		default:
			return
		}
	}
}

// open consumes an opening bracket and the whitespace after it, and the
// closing bracket too when the container is empty.
func (c *cursor) open(open, close byte) (empty, ok bool) {
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

// sep consumes what follows a container's item: a comma (more is true, the
// cursor is at the next item) or the closing bracket.
func (c *cursor) sep(close byte) (more, ok bool) {
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
func (c *cursor) key() ([]byte, bool) {
	k, ok := c.str()
	c.ws()
	if !ok || c.i >= len(c.b) || c.b[c.i] != ':' {
		return nil, false
	}
	c.i++
	c.ws()
	return k, true
}

// str reads a string of unescaped ASCII; the result aliases the input.
func (c *cursor) str() ([]byte, bool) {
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

// integer reads -?(0|[1-9][0-9]*) as a two's-complement value of the given
// width. A fraction or exponent after it fails the next sep.
func (c *cursor) integer(bits int) (int64, bool) {
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

// intern returns b as a string, reusing the package's constant when b is an
// operation mnemonic (every "op", and most labels, of a generated graph).
func intern(b []byte) string {
	if op, ok := opByName[string(b)]; ok {
		return opNames[op]
	}
	return string(b)
}
