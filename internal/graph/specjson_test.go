package graph

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"predictddl/internal/tensor"
)

// generatedSpecs is what the serving path decodes in practice: every zoo
// model and n seeded random graphs, each marshalled compact and indented.
func generatedSpecs(tb testing.TB, n int) map[string][]byte {
	tb.Helper()
	out := make(map[string][]byte)
	add := func(g *Graph) {
		compact, err := json.Marshal(g.Spec())
		if err != nil {
			tb.Fatal(err)
		}
		indented, err := json.MarshalIndent(g.Spec(), "", "\t")
		if err != nil {
			tb.Fatal(err)
		}
		out[g.Name+"/compact"], out[g.Name+"/indent"] = compact, indented
	}
	for _, name := range Zoo() {
		add(MustBuild(name, DefaultConfig()))
	}
	rng := tensor.NewRNG(16)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			add(RandomGraph(rng, DefaultConfig()))
		} else {
			add(RandomGraphSpec(rng, DefaultConfig(), RandomSpec{MinStages: 1, MaxStages: 2, MinBlocks: 1, MaxBlocks: 2, MinChannels: 16}))
		}
	}
	return out
}

const wireNode = `{"op":"conv","label":"conv3x3","out_channels":8,"out_h":4,"out_w":4,"params":72,"flops":1152}`

// fallbackCases are the inputs the scanner must hand to encoding/json, one
// per bail-out the grammar names. All are valid JSON unless marked.
var fallbackCases = map[string]string{
	"unknown spec key":   `{"name":"g","version":2}`,
	"unknown node key":   `{"nodes":[{"op":"conv","stride":2}]}`,
	"re-cased spec key":  `{"Name":"g"}`,
	"re-cased node key":  `{"nodes":[{"OP":"conv"}]}`,
	"duplicate spec key": `{"name":"a","name":"b"}`,
	"duplicate nodes":    `{"nodes":[{"op":"a","params":1}],"nodes":[{"op":"b"}]}`,
	"duplicate node key": `{"nodes":[{"op":"a","op":"b"}]}`,
	"escape in name":     `{"name":"a\nb"}`,
	"escaped quote":      `{"nodes":[{"label":"\"{{{{"}]}`,
	"unicode escape":     `{"nodes":[{"op":"\u0063onv"}]}`,
	"escape in key":      `{"n\u0061me":"g"}`,
	"non-ASCII":          `{"name":"réseau"}`,
	"invalid UTF-8":      "{\"name\":\"a\xffb\"}",
	"null spec":          `null`,
	"null name":          `{"name":null}`,
	"null nodes":         `{"nodes":null}`,
	"null edges":         `{"name":"g","nodes":[` + wireNode + `],"edges":null}`,
	"null node":          `{"nodes":[null]}`,
	"null field":         `{"nodes":[{"params":null}]}`,
	"fraction":           `{"nodes":[{"params":1.0}]}`,
	"exponent":           `{"nodes":[{"flops":1e3}]}`,
	"int64 overflow":     `{"nodes":[{"params":9223372036854775808}]}`,
	"int64 underflow":    `{"nodes":[{"flops":-9223372036854775809}]}`,
	"huge integer":       `{"nodes":[{"out_h":123456789012345678901234567890}]}`,
	"3-element edge":     `{"edges":[[0,1,2]]}`,
	"1-element edge":     `{"edges":[[0]]}`,
	"empty edge":         `{"edges":[[]]}`,
	"nested edge":        `{"edges":[[[0,1]]]}`,
	"string for int":     `{"nodes":[{"out_h":"3"}]}`,
	"int for string":     `{"nodes":[{"op":5}]}`,
	"bool for string":    `{"name":true}`,
	"object for nodes":   `{"nodes":{}}`,
	"number for node":    `{"nodes":[1,{},{}]}`,
	"array for spec":     `[]`,
	"string for spec":    `"spec"`,
	"nested node":        `{"nodes":[{"op":{"x":[1]}}]}`,
	"trailing comma":     `{"name":"g",}`,             // invalid
	"trailing garbage":   `{"name":"g"} x`,            // invalid
	"leading zero":       `{"nodes":[{"params":01}]}`, // invalid
	"bare minus":         `{"nodes":[{"params":-}]}`,  // invalid
	"control in string":  "{\"name\":\"a\tb\"}",       // invalid
	"missing colon":      `{"name" "g"}`,              // invalid
	"missing comma":      `{"nodes":[{} {}]}`,         // invalid
	"unclosed":           `{"nodes":[` + wireNode,     // invalid
	"unclosed string":    `{"name":"g`,                // invalid
	"empty":              ``,                          // invalid
	"whitespace only":    " \n",                       // invalid
	"escaped backslash":  `{"name":"a]b","nodes":[{"label":"x\\"}]}`,
}

// fastCases are hand-written inputs inside the grammar that no generator
// produces: reordered, missing and empty members, extreme integers, odd
// whitespace, brackets inside strings.
var fastCases = map[string]string{
	"empty object":        `{}`,
	"padded empty":        " \t\r\n{ \n } \n",
	"name only":           `{"name":""}`,
	"empty arrays":        `{"nodes":[],"edges":[]}`,
	"padded arrays":       `{ "nodes" : [ ] , "edges" : [ ] }`,
	"reordered":           `{"edges":[[0,1]],"nodes":[{"flops":2,"params":1,"out_w":3,"out_h":4,"out_channels":5,"label":"l","op":"conv"},{"op":"output"}],"name":"g"}`,
	"empty node":          `{"nodes":[{},{ }]}`,
	"unknown op":          `{"nodes":[{"op":"attention","label":"relu"}]}`,
	"int64 bounds":        `{"nodes":[{"params":9223372036854775807,"flops":-9223372036854775808}]}`,
	"negative zero":       `{"nodes":[{"out_h":-0,"out_w":0}]}`,
	"negative edge":       `{"edges":[[-1,-2],[ 3 , 4 ]]}`,
	"brackets in labels":  `{"name":"a]b{c","nodes":[{"label":"x[1]{2}"},{"label":"]"}],"edges":[[0,1]]}`,
	"DEL and punctuation": "{\"name\":\"a\x7f/'<>&\"}",
}

// checkAgainstStdlib is the codec's whole contract: decoding through Spec's
// UnmarshalJSON succeeds or fails as reflection-driven encoding/json does
// on the method-less twin, and on success gives the same value.
func checkAgainstStdlib(t *testing.T, data []byte) {
	t.Helper()
	var got Spec
	var want specWire
	gotErr, wantErr := json.Unmarshal(data, &got), json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: Spec err = %v, stdlib err = %v", data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, Spec(want)) {
		t.Fatalf("%q:\n Spec   %#v\n stdlib %#v", data, got, Spec(want))
	}
}

// A silent slide into the fallback would keep every other test green and
// only lose the speed, so acceptance by the scanner itself is asserted.
func TestSpecFastPathCoversGeneratedSpecs(t *testing.T) {
	specs := generatedSpecs(t, 200)
	if want := 2 * (len(Zoo()) + 200); len(Zoo()) != 31 || len(specs) != want {
		t.Fatalf("%d zoo models, %d documents, want 31 and %d", len(Zoo()), len(specs), want)
	}
	for name, data := range specs {
		var s Spec
		if at, ok := s.scanWhole(data); !ok {
			t.Fatalf("%s: fast path refused at byte %d of %d: %.80q", name, at, len(data), data[at:])
		}
		checkAgainstStdlib(t, data)
	}
}

func TestSpecFastPathHandWritten(t *testing.T) {
	for name, doc := range fastCases {
		var s Spec
		if at, ok := s.scanWhole([]byte(doc)); !ok {
			t.Errorf("%s: fast path refused %q at byte %d", name, doc, at)
		}
		checkAgainstStdlib(t, []byte(doc))
	}
}

func TestSpecFallbackCases(t *testing.T) {
	for name, doc := range fallbackCases {
		s := Spec{Name: "untouched"}
		if _, ok := s.scanWhole([]byte(doc)); ok {
			t.Errorf("%s: fast path accepted %q", name, doc)
		}
		if s.Name != "untouched" || s.Nodes != nil || s.Edges != nil {
			t.Errorf("%s: refused input still wrote %+v", name, s)
		}
		checkAgainstStdlib(t, []byte(doc))
	}
}

// A destination that already holds slices gets stdlib's merge-into-elements
// behaviour, quirks included.
func TestSpecUnmarshalIntoPopulated(t *testing.T) {
	doc := []byte(`{"nodes":[{"op":"relu"}],"edges":[[1,2]]}`)
	fill := func() Spec {
		return Spec{Name: "old", Nodes: []NodeSpec{{Op: "conv", Params: 7}, {Op: "bn"}}, Edges: [][2]int{{5, 6}}}
	}
	got, want := fill(), specWire(fill())
	if err := json.Unmarshal(doc, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, Spec(want)) {
		t.Fatalf("Spec %#v, stdlib %#v", got, Spec(want))
	}
	// Only the name set: the fast path runs and leaves absent fields alone.
	got = Spec{Name: "old"}
	if err := json.Unmarshal([]byte(`{"nodes":[]}`), &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "old" || got.Nodes == nil || got.Edges != nil {
		t.Fatalf("decoded %#v", got)
	}
}

// One allocation each for Nodes, Edges and the name, plus one per label
// that is not an operation mnemonic; reflection-driven decoding of the same
// document takes about five times as many.
func TestSpecUnmarshalAllocs(t *testing.T) {
	spec := MustBuild("resnet18", DefaultConfig()).Spec()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	labels := 0
	for _, n := range spec.Nodes {
		if _, isOp := opByName[n.Label]; !isOp {
			labels++
		}
	}
	var s Spec
	got := testing.AllocsPerRun(20, func() {
		s = Spec{}
		if err := s.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(3 + labels); got > limit {
		t.Fatalf("%v allocs decoding %d nodes with %d free-form labels, want <= %v", got, len(spec.Nodes), labels, limit)
	}
}

// FuzzSpecUnmarshal is the differential check on arbitrary bytes: Spec and
// its method-less twin must agree on error-vs-success and on the value.
func FuzzSpecUnmarshal(f *testing.F) {
	for _, doc := range fallbackCases {
		f.Add([]byte(doc))
	}
	for _, doc := range fastCases {
		f.Add([]byte(doc))
	}
	for name, data := range generatedSpecs(f, 4) {
		if len(data) > 16<<10 {
			continue // keep the corpus mutable: the big zoo models add no new syntax
		}
		f.Add(data)
		if strings.HasSuffix(name, "/compact") {
			for _, cut := range []int{1, len(data) / 3, len(data) / 2, len(data) - 2} {
				f.Add(data[:cut])
			}
			f.Add(bytes.Replace(data, []byte(`"edges":[[`), []byte(`"edges":null,"x":[[`), 1))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstStdlib(t, data)
	})
}
