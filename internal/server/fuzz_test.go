package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vxml"
	"vxml/internal/inex"
	"vxml/internal/testkit"
)

// fuzzRoutes are the POST routes FuzzServerRequest drives, indexed by the
// fuzzer's route byte.
var fuzzRoutes = []string{"/v1/search", "/v1/views", "/v1/explain", "/v1/documents"}

// FuzzServerRequest posts arbitrary bodies to the request-decoding routes
// of a server over the demo corpus (the generated books and reviews plus
// the bookrevs view, at a small size). Whatever the body, the handler must
// not panic and must not answer 5xx — every malformed, oversized or
// unservable request is the client's fault — and GET /v1/stats must still
// answer 200 afterwards. The handler is called directly through httptest,
// so a panic fails the target instead of being swallowed by net/http.
func FuzzServerRequest(f *testing.F) {
	kws65 := make([]string, 65)
	for i := range kws65 {
		kws65[i] = fmt.Sprintf("k%d", i)
	}
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
	seed(0, map[string]any{"view": "bookrevs", "keywords": []string{"system", "data"}, "top_k": 3, "cache": true})
	seed(0, map[string]any{"view": "bookrevs", "keywords": []string{"system"}, "offset": 2, "top_k": 2, "parallelism": 4})
	seed(0, map[string]any{"view": "bookrevs", "keywords": []string{"model"}, "disjunctive": true})
	seed(0, map[string]any{"view": "bookrevs", "keywords": []string{"x"}, "approach": "warp"})
	seed(0, map[string]any{"view": "bookrevs", "keywords": []string{"x"}, "top_k": -1})
	seed(0, map[string]any{"view": "nope", "keywords": []string{"xml"}})
	seed(0, map[string]any{"view": "bookrevs", "keywords": kws65})
	seed(0, `{"view":"bookrevs"`)
	seed(1, map[string]string{"name": "titles", "xquery": `for $b in fn:doc(books.xml)/books//book return $b/title`})
	seed(1, map[string]string{"name": "bookrevs", "xquery": bookrevsView})
	seed(1, map[string]string{"name": "deep", "xquery": strings.Repeat("(", 1001) + "fn:doc(books.xml)//book" + strings.Repeat(")", 1001)})
	seed(1, map[string]string{"name": "big", "xquery": testkit.DoublingView(20)})
	seed(1, map[string]string{"name": "bad", "xquery": "for $a in"})
	seed(1, map[string]string{"name": "ghost", "xquery": `for $a in fn:doc(ghost.xml)//a return $a`})
	seed(2, map[string]any{"view": "bookrevs", "keywords": []string{"system", "data"}})
	seed(2, map[string]any{"view": "bookrevs", "keywords": kws65})
	seed(3, map[string]string{"name": "part-1.xml", "xml": "<notes><note><body>xml search part one</body></note></notes>"})
	seed(3, map[string]string{"name": "deep.xml", "xml": strings.Repeat("<a>", 1000) + "x" + strings.Repeat("</a>", 1000)})
	seed(3, map[string]string{"name": "bad.xml", "xml": "<unclosed>"})
	seed(3, map[string]string{"name": "", "xml": ""})

	booksXML, reviewsXML := inex.GenerateBooksReviews(20, 7)
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		// A fresh server per input keeps every failure reproducible from
		// its input alone.
		db := vxml.Open()
		db.MustAdd("books.xml", booksXML)
		db.MustAdd("reviews.xml", reviewsXML)
		srv := New(db)
		if err := srv.DefineView("bookrevs", bookrevsView); err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: %d %s", path, body, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/stats after POST %s %q: %d %s", path, body, rec.Code, rec.Body)
		}
	})
}
