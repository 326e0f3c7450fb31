package core

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"predictddl/internal/graph"
	"predictddl/internal/jsonscan"
	"predictddl/internal/tensor"
)

// customBody marshals a custom-graph predict body as a client would.
func customBody(tb testing.TB, g *graph.Graph, servers int) []byte {
	tb.Helper()
	body, err := json.Marshal(PredictRequest{Dataset: "cifar10", Graph: g.Spec(), NumServers: servers})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// churnBody is bench/'s batch_churn body: 16 small random graphs (≈ 26
// nodes, ≈ 2.7 KB of JSON each) in one batch.
func churnBody(tb testing.TB) []byte {
	rng := tensor.NewRNG(11)
	small := graph.RandomSpec{MinStages: 1, MaxStages: 2, MinBlocks: 1, MaxBlocks: 2, MinChannels: 16}
	items := make([][]byte, 16)
	for i := range items {
		items[i] = customBody(tb, graph.RandomGraphSpec(rng, graph.DefaultConfig(), small), 1+i)
	}
	return append(append([]byte(`{"requests":[`), bytes.Join(items, []byte{','})...), "]}"...)
}

// coldBody is bench/'s cold_custom body: one default-sized random graph
// (≈ 78 nodes, ≈ 8 KB of JSON).
func coldBody(tb testing.TB) []byte {
	return customBody(tb, graph.RandomGraph(tensor.NewRNG(11), graph.DefaultConfig()), 8)
}

// zooBody is bench/'s warm_zoo body: a predict by name.
const zooBody = `{"dataset":"cifar10","model":"resnet18","num_servers":8}`

// benchDecode times what Admit does with a body once it is read: decode it
// into a fresh request value.
func benchDecode[T PredictRequest | BatchRequest](b *testing.B, body []byte) {
	b.Helper()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req T
		if err := decodeRequest(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBatch16Custom(b *testing.B) { benchDecode[BatchRequest](b, churnBody(b)) }

func BenchmarkDecodePredictCustom(b *testing.B) { benchDecode[PredictRequest](b, coldBody(b)) }

func BenchmarkDecodePredictZoo(b *testing.B) { benchDecode[PredictRequest](b, []byte(zooBody)) }

// decodeAgainstStdlib is the request decoder's contract: decodeRequest
// succeeds or fails as json.Unmarshal does on the same bytes, and on
// success gives the same value.
func decodeAgainstStdlib[T PredictRequest | BatchRequest](t *testing.T, body []byte) {
	t.Helper()
	var got, want T
	gotErr, wantErr := decodeRequest(body, &got), json.Unmarshal(body, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T %q: decodeRequest err = %v, stdlib err = %v", got, truncate(body), gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T %q:\n decodeRequest %+v\n stdlib        %+v", got, truncate(body), got, want)
	}
}

// A bench-shaped body that slid into the fallback would keep every other
// test green and only lose the speed, so the scanner's own acceptance is
// asserted.
func TestDecodeFastPathCoversBenchBodies(t *testing.T) {
	fast := func(name string, body []byte, scan func(*jsonscan.Cursor) bool) {
		if c := jsonscan.New(body); !scan(&c) || !c.End() {
			t.Errorf("%s: fast path refused at byte %d of %d: %.80q", name, c.Pos(), len(body), body[c.Pos():])
		}
	}
	predict := func(c *jsonscan.Cursor) bool { return scanPredict(c, new(PredictRequest)) }
	batch := func(c *jsonscan.Cursor) bool { return scanBatch(c, new(BatchRequest)) }
	fast("batch_churn", churnBody(t), batch)
	fast("cold_custom", coldBody(t), predict)
	fast("warm_zoo", []byte(zooBody), predict)
	fast("zoo batch", []byte(`{"requests":[`+zooBody+`,`+zooBody+`]}`), batch)
	fast("padded", []byte(" {\n\t\"dataset\" : \"cifar10\" , \"server_spec\":\"\",\"num_servers\":0 } \r\n"), predict)
	fast("empty batch", []byte(`{"requests":[]}`), batch)
	for _, body := range [][]byte{churnBody(t), []byte(`{"requests":[]}`)} {
		decodeAgainstStdlib[BatchRequest](t, body)
	}
	for _, body := range [][]byte{coldBody(t), []byte(zooBody)} {
		decodeAgainstStdlib[PredictRequest](t, body)
	}
}

// decodeSeeds are bodies on both sides of the fast path's grammar: what the
// benchmark sends, cut short, and every class of input it hands to stdlib.
func decodeSeeds(tb testing.TB) [][]byte {
	seeds := [][]byte{[]byte(zooBody), coldBody(tb)}
	for _, body := range seeds[:2] {
		for _, cut := range []int{1, len(body) / 3, len(body) / 2, len(body) - 1} {
			seeds = append(seeds, body[:cut])
		}
	}
	item := `{"dataset":"cifar10","graph":{"name":"g","nodes":[{"op":"input"},{"op":"output"}],"edges":[[0,1]]},"num_servers":2}`
	for _, body := range []string{
		`{"requests":[` + item + `,` + zooBody + `]}`,
		`{"requests":[]}`,
		`{"Dataset":"cifar10","MODEL":"resnet18","num_servers":8}`,
		`{"dataset":"cifar10","pad":"xxxxxxxx","model":"resnet18","num_servers":8}`,
		`{"requests":[` + zooBody + `],"pad":[1,2,3]}`,
		`{"dataset":"cifar10","graph":null,"num_servers":2}`,
		`{"dataset":"a","dataset":"b","num_servers":1}`,
		`{"requests":[` + zooBody + `],"requests":[]}`,
		`{"requests":null}`,
		`{"requests":[null]}`,
		`{"dataset":"caf\u00e9","num_servers":1.5}`,
		`{"dataset":"cifar10","num_servers":-0,"server_spec":"cloudlab-p100"}`,
		zooBody + ` x`,
		zooBody + `{"x":1}`,
		zooBody + " \n",
		`null`,
		`[]`,
		``,
	} {
		seeds = append(seeds, []byte(body))
	}
	return seeds
}

// FuzzDecodeRequest is the differential check on arbitrary bytes: every
// body decodes as a predict and as a batch, and decodeRequest must agree
// with json.Unmarshal on error-vs-success and on the value. The churn body
// (≈ 45 KB) stays out of the corpus to keep it mutable; it adds no syntax
// the cold body and the small batches lack.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range decodeSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeAgainstStdlib[PredictRequest](t, body)
		decodeAgainstStdlib[BatchRequest](t, body)
	})
}

// shapedSpec's valid four-node graph in wire form, for the table below to
// break.
var (
	wireNodes = mustJSON(shapedSpec(4, 8, 8).Nodes)
	wireEdges = mustJSON(shapedSpec(4, 8, 8).Edges)
	wireRest  = `,"nodes":` + wireNodes + `,"edges":` + wireEdges + `}`
)

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func graphBody(spec string) string {
	return `{"dataset":"cifar10","graph":` + spec + `,"num_servers":2}`
}

// TestMalformedGraphStatusAndText pins what /v1/predict answers to every
// class of graph the hand-written Spec decoder refuses (the seeds of
// graph.FuzzSpecUnmarshal). Statuses and texts were recorded at the parent
// commit, where encoding/json decoded Spec by reflection, and hold here:
// syntax errors byte for byte, because the request decoder's own scanner
// finds them before Spec.UnmarshalJSON runs. A type mismatch inside the
// graph keeps its sentence except for the struct-field path, which stdlib
// words differently per Go version and per nesting ("*" below; go1.24 said
// NodeSpec.graph.nodes.flops at the parent and says
// PredictRequest.graph.nodes.flops now), and a graph of the wrong JSON kind
// now names the decoder's method-less twin, graph.specWire, not graph.Spec.
func TestMalformedGraphStatusAndText(t *testing.T) {
	const mismatch = "invalid JSON: json: cannot unmarshal "
	cases := []struct {
		name, body string
		status     int
		text       string // the error; "*" stands for the struct-field path
	}{
		{"canonical", graphBody(`{"name":"g"` + wireRest), 200, ""},
		{"unknown spec key", graphBody(`{"name":"g","version":2` + wireRest), 200, ""},
		{"unknown node key", graphBody(`{"nodes":[{"op":"input","stride":2},{"op":"output"}],"edges":[[0,1]]}`), 200, ""},
		{"re-cased key", graphBody(`{"Name":"g"` + strings.Replace(wireRest, "nodes", "NODES", 1)), 200, ""},
		{"duplicate key", graphBody(`{"name":"a","name":"b"` + wireRest), 200, ""},
		{"escape", graphBody(`{"name":"a\nb"` + wireRest), 200, ""},
		{"non-ASCII", graphBody(`{"name":"réseau"` + wireRest), 200, ""},
		{"invalid UTF-8", graphBody("{\"name\":\"a\xffb\"" + wireRest), 200, ""},
		{"3-element edge", graphBody(`{"nodes":` + wireNodes + `,"edges":[[0,1,9],[1,2],[2,3]]}`), 200, ""},
		{"1-element edge", graphBody(`{"nodes":` + wireNodes + `,"edges":[[0,1],[1,2],[2,3],[3]]}`), 400, "graph: not a DAG (cycle detected)"},
		{"null graph", graphBody(`null`), 400, "core: request missing model (or custom graph)"},
		{"null edges", graphBody(`{"nodes":` + wireNodes + `,"edges":null}`), 400, "graph: node 1 (conv) has no inputs"},
		{"null nodes", graphBody(`{"nodes":null,"edges":` + wireEdges + `}`), 400, "graph: edge (0,1) references missing node (have 0 nodes)"},
		{"fraction", graphBody(`{"nodes":[{"op":"input","params":1.0}]}`), 400, mismatch + "number 1.0 into Go struct field * of type int64"},
		{"exponent", graphBody(`{"nodes":[{"op":"input","flops":1e3}]}`), 400, mismatch + "number 1e3 into Go struct field * of type int64"},
		{"int64 overflow", graphBody(`{"nodes":[{"params":9223372036854775808}]}`), 400, mismatch + "number 9223372036854775808 into Go struct field * of type int64"},
		{"string for int", graphBody(`{"nodes":[{"out_h":"3"}]}`), 400, mismatch + "string into Go struct field * of type int"},
		{"int for string", graphBody(`{"nodes":[{"op":5}]}`), 400, mismatch + "number into Go struct field * of type string"},
		{"object for nodes", graphBody(`{"nodes":{}}`), 400, mismatch + "object into Go struct field * of type []graph.NodeSpec"},
		{"number for edge", graphBody(`{"edges":[7]}`), 400, mismatch + "number into Go struct field * of type [2]int"},
		{"array for graph", graphBody(`[]`), 400, mismatch + "array into Go struct field PredictRequest.graph of type graph.specWire"},
		{"string for graph", graphBody(`"resnet18"`), 400, mismatch + "string into Go struct field PredictRequest.graph of type graph.specWire"},
		{"trailing comma", graphBody(`{"name":"g",}`), 400, "invalid JSON: invalid character '}' looking for beginning of object key string"},
		{"leading zero", graphBody(`{"nodes":[{"params":01}]}`), 400, "invalid JSON: invalid character '1' after object key:value pair"},
		{"bare minus", graphBody(`{"nodes":[{"params":-}]}`), 400, "invalid JSON: invalid character '}' in numeric literal"},
		{"control in string", graphBody("{\"name\":\"a\tb\"}"), 400, `invalid JSON: invalid character '\t' in string literal`},
		{"missing colon", graphBody(`{"name" "g"}`), 400, `invalid JSON: invalid character '"' after object key`},
		{"missing comma", graphBody(`{"nodes":[{} {}]}`), 400, "invalid JSON: invalid character '{' after array element"},
		{"truncated in graph", `{"dataset":"cifar10","graph":{"name":"g","nodes":[{"op":"inp`, 400, "invalid JSON: unexpected EOF"},
		{"truncated after graph", `{"dataset":"cifar10","graph":{"name":"g"},"num_servers":`, 400, "invalid JSON: unexpected EOF"},
		// The body is one value: what follows it is an error, as in
		// json.Unmarshal (the streaming decoder this replaced never looked).
		{"garbage after body", graphBody(`{"name":"g"}`) + ` x`, 400, "invalid JSON: invalid character 'x' after top-level value"},
	}
	srv := httptest.NewServer(NewController(NewGHNRegistry(), cheapEngine(t)).Handler())
	defer srv.Close()
	for _, tc := range cases {
		resp := postJSON(t, srv.URL+"/v1/predict", []byte(tc.body))
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &reply); err != nil {
			t.Errorf("%s: status %d, undecodable reply %q", tc.name, resp.StatusCode, raw)
			continue
		}
		head, tail, wild := strings.Cut(tc.text, "*")
		matches := reply.Error == tc.text
		if wild {
			matches = strings.HasPrefix(reply.Error, head) && strings.HasSuffix(reply.Error, tail)
		}
		if resp.StatusCode != tc.status || !matches || (tc.status == http.StatusOK) != (reply.Error == "") {
			t.Errorf("%s: %d %q, want %d %q", tc.name, resp.StatusCode, reply.Error, tc.status, tc.text)
		}
	}
}
