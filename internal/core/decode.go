package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"predictddl/internal/graph"
	"predictddl/internal/jsonscan"
	"predictddl/internal/obs"
)

// Admit is the front door of every prediction handler, the controller's and
// the gateway's (DESIGN.md §15): POST only, the body read once and whole
// under maxBody, then decoded into v — a *PredictRequest or a *BatchRequest
// — under tr's "decode" stage (tr may be nil). A body over the cap is 413;
// one that is not exactly one JSON value of v's shape is 400. Admit writes
// the refusal and reports false when the request goes no further;
// otherwise it returns the body, which the gateway forwards verbatim.
func Admit(w http.ResponseWriter, r *http.Request, tr *obs.Trace, maxBody int64, v any) ([]byte, bool) {
	if r.Method != http.MethodPost {
		obs.HTTPError(w, http.StatusMethodNotAllowed, "POST required")
		return nil, false
	}
	stop := tr.Stage("decode")
	body, err := readBody(w, r, maxBody)
	if err != nil {
		stop()
		code := http.StatusBadRequest
		if tooLarge := new(*http.MaxBytesError); errors.As(err, tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		obs.HTTPError(w, code, "invalid request body: "+err.Error())
		return nil, false
	}
	err = decodeRequest(body, v)
	stop()
	if err != nil {
		obs.HTTPError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return nil, false
	}
	return body, true
}

// readBody reads the request body whole, failing past maxBody. A declared
// length within the cap sizes the buffer once, with the read that meets EOF
// fitting in bytes.MinRead of slack.
func readBody(w http.ResponseWriter, r *http.Request, maxBody int64) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBody {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	return buf.Bytes(), err
}

// decodeRequest decodes body into v, a fresh *PredictRequest or
// *BatchRequest. The canonical form — the keys exactly the request's, each
// at most once, graphs in graph.Spec's own grammar — is read in one pass by
// the cursor graph.Spec uses. Everything else (unknown or re-cased keys,
// null, escapes, fractions, duplicates, malformed text, a destination that
// already holds data) goes to encoding/json on the same bytes, so its
// value and its error are stdlib's.
func decodeRequest(body []byte, v any) error {
	c := jsonscan.New(body)
	switch v := v.(type) {
	case *PredictRequest:
		var req PredictRequest
		if *v == req && scanPredict(&c, &req) && c.End() {
			*v = req
			return nil
		}
	case *BatchRequest:
		var req BatchRequest
		if v.Requests == nil && scanBatch(&c, &req) && c.End() {
			*v = req
			return nil
		}
	}
	return decodeStd(body, v)
}

// decodeStd is encoding/json's reading of a request body: one JSON value
// decoded by reflection, with nothing after it but whitespace. The
// streaming Decoder words a truncated body "unexpected EOF".
func decodeStd(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := jsonscan.New(body[dec.InputOffset():]); !rest.End() {
		// Unmarshal checks the whole text before it writes to v, so all
		// it does here is report the bytes after the value.
		return json.Unmarshal(body, v)
	}
	return nil
}

// scanPredict reads one PredictRequest object at the cursor, its graph
// through graph.Spec.Scan.
func scanPredict(c *jsonscan.Cursor, req *PredictRequest) bool {
	return c.Object(func(key []byte) (int, bool) {
		var ok bool
		switch string(key) {
		case "dataset":
			req.Dataset, ok = scanString(c)
			return 0, ok
		case "model":
			req.Model, ok = scanString(c)
			return 1, ok
		case "graph":
			req.Graph = new(graph.Spec)
			return 2, req.Graph.Scan(c)
		case "num_servers":
			var n int64
			n, ok = c.Integer(strconv.IntSize)
			req.NumServers = int(n)
			return 3, ok
		case "server_spec":
			req.ServerSpec, ok = scanString(c)
			return 4, ok
		}
		return 0, false
	})
}

// scanBatch reads one BatchRequest object at the cursor. Its items go
// through a stack buffer into a slice of exactly their number, empty and
// non-nil for "requests":[] as stdlib's.
func scanBatch(c *jsonscan.Cursor, req *BatchRequest) bool {
	return c.Object(func(key []byte) (int, bool) {
		if string(key) != "requests" {
			return 0, false
		}
		var buf [32]PredictRequest
		items := buf[:0]
		empty, ok := c.Open('[', ']')
		for more := !empty; ok && more; {
			items = append(items, PredictRequest{})
			if !scanPredict(c, &items[len(items)-1]) {
				return 0, false
			}
			more, ok = c.Sep(']')
		}
		req.Requests = append(make([]PredictRequest, 0, len(items)), items...)
		return 0, ok
	})
}

func scanString(c *jsonscan.Cursor) (string, bool) {
	s, ok := c.Str()
	return string(s), ok
}
