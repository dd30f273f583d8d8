package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vxml/internal/httpkit"
	"vxml/internal/testkit"
)

// fuzzNodeRoutes are the POST routes FuzzNodeRequest drives, indexed by
// the fuzzer's route byte.
var fuzzNodeRoutes = []string{"/views", "/documents", "/rank", "/materialize", "/search"}

// fuzzNodeGen is the generation the fuzzed node is at when the input
// arrives: two adds, each adopting the next generation.
const fuzzNodeGen = 2

// FuzzNodeRequest posts arbitrary bodies to the node's /cluster/v1 request
// routes on a node holding two collection parts and one pushed view.
// Whatever the body, the handler must not panic, and every non-2xx reply
// must be a JSON error body carrying a typed code — the field the
// coordinator classifies node failures by. The handler is called directly
// through httptest, so a panic fails the target instead of being
// swallowed by net/http.
func FuzzNodeRequest(f *testing.F) {
	kws65 := make([]string, 65)
	for i := range kws65 {
		kws65[i] = fmt.Sprintf("k%d", i)
	}
	const view = `for $a in fn:collection("part-*")/books//article return <r>{$a/bdy}</r>`
	rank := rankRequest{Schema: Schema, View: "v", Keywords: []string{"copper"}, Gen: fuzzNodeGen}
	seed := func(route int, body any) {
		data, ok := body.(string)
		if !ok {
			b, err := json.Marshal(body)
			if err != nil {
				f.Fatal(err)
			}
			data = string(b)
		}
		f.Add(uint8(route), []byte(data))
	}
	seed(0, viewRequest{Schema: Schema, Name: "w", XQuery: view})
	seed(0, viewRequest{Schema: "vxmlcluster/99", Name: "v", XQuery: "x"})
	seed(0, viewRequest{Schema: Schema, Name: "deep", XQuery: strings.Repeat("(", 1001) + "fn:doc(x.xml)//a" + strings.Repeat(")", 1001)})
	seed(0, viewRequest{Schema: Schema, Name: "big", XQuery: testkit.DoublingView(20)})
	seed(1, documentRequest{Schema: Schema, Op: "add", Name: "part-02.xml", XML: rpcTestDoc, DocID: 3, SetGen: fuzzNodeGen + 1})
	seed(1, documentRequest{Schema: Schema, Op: "replace", Name: "part-00.xml", XML: rpcTestDoc, DocID: 4, SetGen: fuzzNodeGen + 1})
	seed(1, documentRequest{Schema: Schema, Op: "delete", Name: "part-01.xml", SetGen: fuzzNodeGen + 1})
	seed(1, documentRequest{Schema: Schema, Op: "add", Name: "deep.xml", DocID: 5, SetGen: fuzzNodeGen + 1,
		XML: strings.Repeat("<a>", 1000) + "x" + strings.Repeat("</a>", 1000)})
	seed(2, rank)
	seed(2, rankRequest{Schema: Schema, View: "v", Keywords: []string{"copper"}, Gen: 7})
	seed(2, rankRequest{Schema: Schema, View: "v", Keywords: kws65, Gen: fuzzNodeGen})
	seed(3, materializeRequest{rankRequest: rank, Positions: []int{0, 1}})
	seed(3, materializeRequest{rankRequest: rank, Positions: []int{-1, 99}})
	seed(4, searchRequest{Schema: Schema, View: "v", Keywords: []string{"copper", "quartz"}, TopK: 2, Gen: fuzzNodeGen})
	seed(4, searchRequest{Schema: Schema, View: "v", Keywords: kws65, Gen: fuzzNodeGen})
	seed(4, `{"schema":"vxmlcluster/2","view":"v"`)

	setup := []struct {
		path string
		req  any
	}{
		{"/documents", documentRequest{Schema: Schema, Op: "add", Name: "part-00.xml", XML: rpcTestDoc, DocID: 1, SetGen: 1}},
		{"/documents", documentRequest{Schema: Schema, Op: "add", Name: "part-01.xml", XML: rpcTestDoc, DocID: 2, SetGen: fuzzNodeGen}},
		{"/views", viewRequest{Schema: Schema, Name: "v", XQuery: view}},
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		// A fresh node per input keeps every failure reproducible from its
		// input alone.
		h := NewNode().Handler()
		serve := func(path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathPrefix+path, bytes.NewReader(body)))
			return rec
		}
		for _, s := range setup {
			data, err := json.Marshal(s.req)
			if err != nil {
				t.Fatal(err)
			}
			if rec := serve(s.path, data); rec.Code != http.StatusOK {
				t.Fatalf("setup %s: %d %s", s.path, rec.Code, rec.Body)
			}
		}
		path := fuzzNodeRoutes[int(route)%len(fuzzNodeRoutes)]
		rec := serve(path, body)
		if rec.Code >= 200 && rec.Code < 300 {
			return
		}
		var eb httpkit.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Code == "" {
			t.Fatalf("POST %s %q: %d with no typed error code: %s", path, body, rec.Code, rec.Body)
		}
	})
}
