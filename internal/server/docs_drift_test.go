// Docs-drift test: docs/API.md documents every route as a heading of the
// form "## METHOD /v1/path". This test holds that document to the server's
// actual routing table in both directions — a route added without
// documentation fails, and so does documentation for a route that no
// longer exists — so the API reference cannot rot silently.
package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"vxml"
	"vxml/internal/catalog"
	"vxml/internal/cluster"
	"vxml/internal/diskstore"
	"vxml/internal/httpkit"
	"vxml/internal/store"
)

// apiDocPath locates docs/API.md relative to this package.
const apiDocPath = "../../docs/API.md"

var routeHeading = regexp.MustCompile(`(?m)^## (GET|POST|PUT|DELETE|PATCH|HEAD) (/v1\S*)`)

func TestDocsAPIMatchesRegisteredRoutes(t *testing.T) {
	data, err := os.ReadFile(filepath.FromSlash(apiDocPath))
	if err != nil {
		t.Fatalf("reading %s: %v", apiDocPath, err)
	}
	documented := map[string]bool{}
	for _, m := range routeHeading.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]+" "+m[2]] = true
	}
	if len(documented) == 0 {
		t.Fatalf("%s contains no '## METHOD /v1/...' route headings; the drift check needs them", apiDocPath)
	}

	registered := map[string]bool{}
	for _, r := range New(vxml.Open()).Routes() {
		registered[r] = true
	}

	for r := range registered {
		if !documented[r] {
			t.Errorf("route %q is registered by internal/server but has no '## %s' heading in %s", r, r, apiDocPath)
		}
	}
	for d := range documented {
		if !registered[d] {
			t.Errorf("%s documents %q but internal/server does not register it", apiDocPath, d)
		}
	}
}

// TestDocsAPICoversWireFields holds docs/API.md to the JSON field names of
// every type the /v1 responses encode: each response body and, recursively,
// every struct it carries — vxml.Result, vxml.Stats and vxml.NodeStatus,
// both catalog.Stats blocks, store.ShardInfo, diskstore.Stats and
// diskstore.CacheStats. Every json tag must appear in the document (as a
// `"quoted"` example key or a `backtick` reference), so a wire field added
// anywhere in a response — plan_source, a catalog counter, a disk cache
// counter — cannot ship undocumented.
func TestDocsAPICoversWireFields(t *testing.T) {
	data, err := os.ReadFile(filepath.FromSlash(apiDocPath))
	if err != nil {
		t.Fatalf("reading %s: %v", apiDocPath, err)
	}
	doc := string(data)
	seen := map[reflect.Type]bool{}
	var walk func(rt reflect.Type)
	walk = func(rt reflect.Type) {
		for rt.Kind() == reflect.Pointer || rt.Kind() == reflect.Slice || rt.Kind() == reflect.Map {
			rt = rt.Elem()
		}
		if rt.Kind() != reflect.Struct || seen[rt] {
			return
		}
		seen[rt] = true
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !f.IsExported() || tag == "-" {
				continue
			}
			if tag == "" && f.Anonymous {
				walk(f.Type) // promoted into the enclosing object
				continue
			}
			if tag == "" {
				t.Errorf("%s.%s is encoded under its Go name; give it a json tag", rt, f.Name)
			} else if !strings.Contains(doc, `"`+tag+`"`) && !strings.Contains(doc, "`"+tag+"`") {
				t.Errorf("%s serves field %q but %s never mentions it", rt, tag, apiDocPath)
			}
			walk(f.Type)
		}
	}
	for _, v := range []any{
		httpkit.ErrorBody{}, addDocumentResponse{}, defineViewResponse{},
		searchResponse{}, explainResponse{}, statsResponse{},
	} {
		walk(reflect.TypeOf(v))
	}
	for _, v := range []any{
		vxml.Result{}, vxml.Stats{}, vxml.NodeStatus{}, catalog.CacheStats{}, catalog.PlannerStats{},
		store.ShardInfo{}, diskstore.Stats{}, diskstore.CacheStats{},
	} {
		if !seen[reflect.TypeOf(v)] {
			t.Errorf("%T is no longer reached from a /v1 response; update this test", v)
		}
	}
}

var clusterRouteHeading = regexp.MustCompile(`(?m)^## (GET|POST|PUT|DELETE|PATCH|HEAD) (/cluster/v1\S*)`)

// TestDocsAPIMatchesNodeRoutes holds docs/API.md to the node RPC routing
// table the same way the /v1 check holds it to the public surface: every
// registered /cluster/v1 route needs a heading, and every documented one
// must exist.
func TestDocsAPIMatchesNodeRoutes(t *testing.T) {
	data, err := os.ReadFile(filepath.FromSlash(apiDocPath))
	if err != nil {
		t.Fatalf("reading %s: %v", apiDocPath, err)
	}
	documented := map[string]bool{}
	for _, m := range clusterRouteHeading.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]+" "+m[2]] = true
	}
	if len(documented) == 0 {
		t.Fatalf("%s contains no '## METHOD /cluster/v1/...' route headings; the drift check needs them", apiDocPath)
	}

	registered := map[string]bool{}
	for _, r := range cluster.NewNode().Routes() {
		registered[r] = true
	}

	for r := range registered {
		if !documented[r] {
			t.Errorf("route %q is registered by internal/cluster but has no '## %s' heading in %s", r, r, apiDocPath)
		}
	}
	for d := range documented {
		if !registered[d] {
			t.Errorf("%s documents %q but internal/cluster does not register it", apiDocPath, d)
		}
	}
}

// TestRoutesServeOnlyUnderV1 pins the routing contract the docs state:
// every route answers a scripted request sequence under /v1 with a handler
// status, and the same requests under the bare prefix are router misses
// (404) — there are no unversioned aliases. Each run uses a fresh server so
// the sequences are independent.
func TestRoutesServeOnlyUnderV1(t *testing.T) {
	// One step per route family, in an order that makes every step
	// succeed: ingest, replace, delete (the name exists thanks to the
	// ingest), re-ingest for the view/search steps, view, search, stats.
	steps := []struct {
		method, path, body string
	}{
		{"POST", "/documents", `{"name":"a.xml","xml":"<notes><note><body>xml search</body></note></notes>"}`},
		{"PUT", "/documents/a.xml", `{"xml":"<notes><note><body>xml revised</body></note></notes>"}`},
		{"DELETE", "/documents/a.xml", ""},
		{"POST", "/documents", `{"name":"b.xml","xml":"<notes><note><body>xml again</body></note></notes>"}`},
		{"POST", "/views", `{"name":"all","xquery":"for $n in fn:collection(\"*.xml\")/notes//note return <hit>{$n/body}</hit>"}`},
		{"POST", "/search", `{"view":"all","keywords":["xml"]}`},
		{"GET", "/stats", ""},
	}
	statuses := func(prefix string) []int {
		h := New(vxml.Open()).Handler()
		var out []int
		for _, st := range steps {
			var body io.Reader
			if st.body != "" {
				body = strings.NewReader(st.body)
			}
			req := httptest.NewRequest(st.method, prefix+st.path, body)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			out = append(out, rec.Code)
		}
		return out
	}
	bare, v1 := statuses(""), statuses("/v1")
	for i, st := range steps {
		if bare[i] != http.StatusNotFound {
			t.Errorf("%s %s: unversioned path answered %d, want a 404 router miss", st.method, st.path, bare[i])
		}
		if v1[i] == http.StatusNotFound || v1[i] == http.StatusMethodNotAllowed {
			t.Errorf("%s /v1%s: status %d looks like a router miss, not a handler answer", st.method, st.path, v1[i])
		}
	}
}
