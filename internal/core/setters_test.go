package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"predictddl/internal/cluster"
	"predictddl/internal/graph"
	"predictddl/internal/tensor"
)

// setterCase is one request the serving goroutines repeat, with the statuses
// the contract allows under any controller state it could meet.
type setterCase struct {
	name  string
	path  string
	body  []byte
	codes map[int]bool // whole-request statuses
	// items, set on batch requests, are the per-item codes allowed in a 200
	// reply; 0 is a priced item, which must carry the item's reference bits.
	items []map[int]bool
}

// TestControllerRuntimeSettersWhileServing holds the runtime setters to
// their "safe to call at any time" promise: while goroutines post zoo and
// custom-graph /v1/predict and /v1/predict/batch bodies through Handler(),
// others flip SetLimits, attach and detach an empty collector, swap the
// trace log and re-add the dataset's engine. Every reply must be a status
// the contract allows for that request under one of the states it could
// have seen, and every priced answer must carry the bits a quiet
// controller gives. Run it under -race.
func TestControllerRuntimeSettersWhileServing(t *testing.T) {
	e := cheapEngine(t)
	c := NewController(NewGHNRegistry(), e)
	h := c.Handler()

	zoo := PredictRequest{Dataset: "cifar10", Model: "resnet18", NumServers: 2}
	zoo4 := PredictRequest{Dataset: "cifar10", Model: "vgg11", NumServers: 4}
	live := PredictRequest{Dataset: "cifar10", Model: "resnet18"} // priced on the collector's inventory
	custom := PredictRequest{Dataset: "cifar10", Graph: graph.RandomGraph(tensor.NewRNG(77), graph.DefaultConfig()).Spec(), NumServers: 2}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	batchOf := func(items ...PredictRequest) []byte { return mustJSON(BatchRequest{Requests: items}) }

	// Small limits a flipper installs: a body cap the zoo bodies fit under
	// and the custom graph does not, and a one-item batch cap.
	const smallBody = 512
	zooBody, customBody := mustJSON(zoo), mustJSON(custom)
	smallBatch := batchOf(zoo, zoo4)
	if len(zooBody) > smallBody || len(smallBatch) > smallBody || len(customBody) <= smallBody {
		t.Fatalf("body sizes %d/%d/%d do not straddle the %d-byte cap", len(zooBody), len(smallBatch), len(customBody), smallBody)
	}

	priced := map[int]bool{0: true}
	noInventory := map[int]bool{http.StatusBadRequest: true, http.StatusServiceUnavailable: true}
	ok := map[int]bool{http.StatusOK: true}
	okOr413 := map[int]bool{http.StatusOK: true, http.StatusRequestEntityTooLarge: true}
	cases := []setterCase{
		{name: "zoo", path: "/v1/predict", body: zooBody, codes: ok},
		{name: "zoo traced", path: "/v1/predict?trace=1", body: zooBody, codes: ok},
		{name: "custom", path: "/v1/predict", body: customBody, codes: okOr413},
		{name: "live inventory", path: "/v1/predict", body: mustJSON(live), codes: noInventory},
		{name: "small batch", path: "/v1/predict/batch", body: smallBatch, codes: okOr413,
			items: []map[int]bool{priced, priced}},
		{name: "mixed batch traced", path: "/v1/predict/batch?trace=1", body: batchOf(zoo, live, custom, zoo4), codes: okOr413,
			items: []map[int]bool{priced, noInventory, priced, priced}},
	}

	post := func(tc setterCase) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body)))
		return rec.Code, rec.Body.Bytes()
	}
	// Reference bits from the quiet controller: default limits, no
	// collector, no trace log.
	refs := make([][]uint64, len(cases))
	for i, tc := range cases {
		code, body := post(tc)
		if !tc.codes[code] {
			t.Fatalf("%s on the quiet controller: status %d: %s", tc.name, code, body)
		}
		bits, err := pricedBits(tc, code, body)
		if err != nil {
			t.Fatalf("%s on the quiet controller: %v", tc.name, err)
		}
		refs[i] = bits
	}

	col, err := cluster.NewCollector("127.0.0.1:0", cluster.CollectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	var traces syncBuffer
	logger := log.New(&traces, "", 0)
	twin := NewInferenceEngine(e.Dataset(), e.ghn, e.model) // same weights, cold cache

	// Each flipper draws its next state from its own seeded stream, so the
	// states stay mixed however the scheduler interleaves the goroutines.
	stop := make(chan struct{})
	var flippers sync.WaitGroup
	var seed int64
	flip := func(step func(i int)) {
		seed++
		rng := rand.New(rand.NewSource(seed))
		flippers.Add(1)
		go func() {
			defer flippers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				step(rng.Int())
				runtime.Gosched()
			}
		}()
	}
	flip(func(i int) {
		switch i % 3 {
		case 0:
			c.SetLimits(smallBody, 0)
		case 1:
			c.SetLimits(0, 1)
		default:
			c.SetLimits(0, 0)
		}
	})
	flip(func(i int) {
		if i%2 == 0 {
			c.SetCollector(col)
		} else {
			c.SetCollector(nil)
		}
	})
	flip(func(i int) {
		if i%2 == 0 {
			c.SetTraceLog(logger)
		} else {
			c.SetTraceLog(nil)
		}
	})
	flip(func(i int) {
		if i%2 == 0 {
			c.AddEngine(twin)
		} else {
			c.AddEngine(e)
		}
	})

	// check posts case i once and reports its first breach of the contract.
	check := func(i int) error {
		tc := cases[i]
		code, body := post(tc)
		if !tc.codes[code] {
			return fmt.Errorf("%s: status %d outside %v: %s", tc.name, code, tc.codes, body)
		}
		bits, err := pricedBits(tc, code, body)
		if err != nil {
			return fmt.Errorf("%s: %v", tc.name, err)
		}
		for j, b := range bits {
			if b != unpriced && b != refs[i][j] {
				return fmt.Errorf("%s: answer %d is %v, the quiet controller said %v",
					tc.name, j, math.Float64frombits(b), math.Float64frombits(refs[i][j]))
			}
		}
		return nil
	}
	const servers, rounds = 4, 16
	errs := make(chan error, servers*rounds*len(cases)) // one send per request at most
	var wg sync.WaitGroup
	for s := 0; s < servers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range cases {
					runtime.Gosched() // let the flippers move between requests on one P
					if err := check((k + s) % len(cases)); err != nil {
						errs <- err
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	flippers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// unpriced marks an answer with no prediction; JSON cannot carry the NaN
// these bits encode, so no priced answer collides with it.
const unpriced = math.MaxUint64

// pricedBits checks a reply against tc's per-item contract and returns the
// predicted_seconds bits of each answer, unpriced where there is none (a
// refused request, a failed item).
func pricedBits(tc setterCase, code int, body []byte) ([]uint64, error) {
	if tc.items == nil {
		if code != http.StatusOK {
			return []uint64{unpriced}, nil
		}
		var pr PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			return nil, err
		}
		return []uint64{math.Float64bits(pr.PredictedSeconds)}, nil
	}
	bits := make([]uint64, len(tc.items))
	for i := range bits {
		bits[i] = unpriced
	}
	if code != http.StatusOK {
		return bits, nil
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return nil, err
	}
	if len(br.Results) != len(tc.items) {
		return nil, fmt.Errorf("%d results, want %d", len(br.Results), len(tc.items))
	}
	for i, item := range br.Results {
		if !tc.items[i][item.Code] {
			return nil, fmt.Errorf("item %d: code %d outside %v (%s)", i, item.Code, tc.items[i], item.Error)
		}
		if item.Code == 0 {
			bits[i] = math.Float64bits(item.PredictedSeconds)
		}
	}
	return bits, nil
}
