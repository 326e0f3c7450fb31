package graph

import (
	"encoding/json"
	"strconv"

	"predictddl/internal/jsonscan"
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
		if _, ok := s.scanWhole(data); ok {
			return nil
		}
	}
	return json.Unmarshal(data, (*specWire)(s))
}

// scanWhole reads data as one whole Spec document, trailing whitespace
// included, and writes s only on success. It returns where it stopped.
func (s *Spec) scanWhole(data []byte) (int, bool) {
	c := jsonscan.New(data)
	out := *s
	if !out.Scan(&c) || !c.End() {
		return c.Pos(), false
	}
	*s = out
	return c.Pos(), true
}

// Scan reads one Spec object at the cursor in the canonical grammar: keys
// exactly Spec's and NodeSpec's, each at most once and in any order;
// [from,to] edge pairs; the cursor's strings and integers. It writes only
// the fields the object names. On false — unknown or re-cased key,
// duplicate, null, an edge of another length, or anything the cursor
// refuses — s may be partly written and the caller falls back to stdlib.
func (s *Spec) Scan(c *jsonscan.Cursor) bool {
	return c.Object(func(key []byte) (int, bool) {
		var ok bool
		switch string(key) {
		case "name":
			var v []byte
			v, ok = c.Str()
			s.Name = string(v)
			return 0, ok
		case "nodes":
			s.Nodes, ok = scanNodes(c)
			return 1, ok
		case "edges":
			s.Edges, ok = scanEdges(c)
			return 2, ok
		}
		return 0, false
	})
}

// scanNodes reads the "nodes" array into a slice of exactly its length,
// empty and non-nil for [] as stdlib's. Items are read into a stack buffer
// first, so sizing the slice costs no second pass over the text.
func scanNodes(c *jsonscan.Cursor) ([]NodeSpec, bool) {
	var buf [128]NodeSpec
	nodes := buf[:0]
	empty, ok := c.Open('[', ']')
	for more := !empty; ok && more; {
		nodes = append(nodes, NodeSpec{})
		if !scanNode(c, &nodes[len(nodes)-1]) {
			return nil, false
		}
		more, ok = c.Sep(']')
	}
	return append(make([]NodeSpec, 0, len(nodes)), nodes...), ok
}

// scanNode reads one node object into n.
func scanNode(c *jsonscan.Cursor, n *NodeSpec) bool {
	return c.Object(func(key []byte) (int, bool) {
		var ok bool
		var str []byte
		var num int64
		switch string(key) {
		case "op":
			str, ok = c.Str()
			n.Op = intern(str)
			return 0, ok
		case "label":
			str, ok = c.Str()
			n.Label = intern(str)
			return 1, ok
		case "out_channels":
			num, ok = c.Integer(strconv.IntSize)
			n.OutChannels = int(num)
			return 2, ok
		case "out_h":
			num, ok = c.Integer(strconv.IntSize)
			n.OutH = int(num)
			return 3, ok
		case "out_w":
			num, ok = c.Integer(strconv.IntSize)
			n.OutW = int(num)
			return 4, ok
		case "params":
			n.Params, ok = c.Integer(64)
			return 5, ok
		case "flops":
			n.FLOPs, ok = c.Integer(64)
			return 6, ok
		}
		return 0, false
	})
}

// scanEdges reads the "edges" array of [from,to] pairs, sized as
// scanNodes sizes nodes.
func scanEdges(c *jsonscan.Cursor) ([][2]int, bool) {
	var buf [256][2]int
	edges := buf[:0]
	empty, ok := c.Open('[', ']')
	for more := !empty; ok && more; {
		var e [2]int
		if empty, ok := c.Open('[', ']'); !ok || empty {
			return nil, false
		}
		for k := range e {
			v, ok := c.Integer(strconv.IntSize)
			// The pair's one comma, then its bracket.
			if more, sepOK := c.Sep(']'); !ok || !sepOK || more != (k == 0) {
				return nil, false
			}
			e[k] = int(v)
		}
		edges = append(edges, e)
		more, ok = c.Sep(']')
	}
	return append(make([][2]int, 0, len(edges)), edges...), ok
}

// intern returns b as a string, reusing the package's constant when b is an
// operation mnemonic (every "op", and most labels, of a generated graph).
func intern(b []byte) string {
	if op, ok := opByName[string(b)]; ok {
		return opNames[op]
	}
	return string(b)
}
