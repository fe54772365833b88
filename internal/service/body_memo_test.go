package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ajdloss/internal/jointree"
)

// serve runs one request through h and returns the status and exact body.
func serve(h http.Handler, method, path, body string) (int, string) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// freshJSON encodes v the way every response body is encoded, independently
// of the body memo.
func freshJSON(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

const memoBatchBody = `{"dataset":"block","queries":[{"kind":"entropy","attrs":["A","B"]},{"kind":"mi","a":["A"],"b":["B"],"given":["C"]},{"kind":"fd","x":["C"],"y":["A"]},{"kind":"distinct","attrs":["C"]}]}`

// memoRoutes are the four cached view types, each with its legacy and /v1
// request and the in-process call that returns the same cached view.
var memoRoutes = []struct {
	name, method, legacy, v1, body string
	view                           func(*Service) (any, error)
}{
	{"analyze", "GET", "/analyze?dataset=block&schema=A,C|B,C", "/v1/default/analyze?dataset=block&schema=A,C|B,C", "",
		func(s *Service) (any, error) { return s.Analyze("block", "A,C;B,C") }},
	{"entropy", "GET", "/entropy?dataset=block&a=A&b=B&given=C", "/v1/default/entropy?dataset=block&a=A&b=B&given=C", "",
		func(s *Service) (any, error) {
			return s.Entropy("block", nil, []string{"A"}, []string{"B"}, []string{"C"})
		}},
	{"batch", "POST", "/batch", "/v1/default/batch", memoBatchBody,
		func(s *Service) (any, error) {
			var req struct {
				Queries []BatchQuery `json:"queries"`
			}
			if err := json.Unmarshal([]byte(memoBatchBody), &req); err != nil {
				return nil, err
			}
			return s.Batch("block", req.Queries)
		}},
	{"discover", "GET", "/discover?dataset=block&target=0.01&maxsep=1", "/v1/default/discover?dataset=block&target=0.01&maxsep=1", "",
		func(s *Service) (any, error) { return s.Discover("block", 0.01, 1) }},
}

// TestCachedBodyBytes: the first response, a hit and a hit on the aliased
// route are byte-identical to a fresh encoding of the cached view, for every
// cached view type and starting from either route.
func TestCachedBodyBytes(t *testing.T) {
	for _, rt := range memoRoutes {
		for _, legacyFirst := range []bool{true, false} {
			first, alias := rt.v1, rt.legacy
			if legacyFirst {
				first, alias = alias, first
			}
			s := newTestService(t, 16)
			h := NewHandler(s)
			var bodies []string
			for _, path := range []string{first, first, alias} {
				code, body := serve(h, rt.method, path, rt.body)
				if code != http.StatusOK {
					t.Fatalf("%s %s: %d %s", rt.name, path, code, body)
				}
				bodies = append(bodies, body)
			}
			if st := s.Stats(); st.Computed != 1 || st.CacheHits != 2 {
				t.Fatalf("%s from %s: computed %d, cache_hits %d; want 1 and 2", rt.name, first, st.Computed, st.CacheHits)
			}
			v, err := rt.view(s)
			if err != nil {
				t.Fatal(err)
			}
			want := freshJSON(t, v)
			for i, body := range bodies {
				if body != want {
					t.Fatalf("%s from %s: response %d differs from a fresh encoding:\n got: %s\nwant: %s", rt.name, first, i, body, want)
				}
			}
		}
	}
}

// TestCachedBodyAfterAppend: an append moves every route to the new
// generation, whose memoized body differs and echoes that generation.
func TestCachedBodyAfterAppend(t *testing.T) {
	for _, rt := range memoRoutes {
		s := newTestService(t, 16)
		h := NewHandler(s)
		_, before := serve(h, rt.method, rt.legacy, rt.body)
		ap, err := s.Append("block", [][]string{{"41", "401", "4"}, {"42", "401", "4"}}, false)
		if err != nil {
			t.Fatal(err)
		}
		var after string
		for _, path := range []string{rt.legacy, rt.v1} {
			code, body := serve(h, rt.method, path, rt.body)
			if code != http.StatusOK {
				t.Fatalf("%s %s: %d %s", rt.name, path, code, body)
			}
			if after != "" && body != after {
				t.Fatalf("%s: hit after append differs from the first response", rt.name)
			}
			after = body
		}
		if after == before {
			t.Fatalf("%s: body unchanged across an append", rt.name)
		}
		var echo struct {
			Generation int64 `json:"generation"`
		}
		if err := json.Unmarshal([]byte(after), &echo); err != nil || echo.Generation != ap.Generation {
			t.Fatalf("%s: echoed generation %d (err %v), want %d", rt.name, echo.Generation, err, ap.Generation)
		}
		v, err := rt.view(s)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshJSON(t, v); after != want {
			t.Fatalf("%s: post-append body differs from a fresh encoding", rt.name)
		}
	}
}

// TestCachedBodyConcurrentHits: many goroutines write the same cached views
// at once, the first writes racing to fill each memo; every body matches a
// fresh encoding. Run under -race.
func TestCachedBodyConcurrentHits(t *testing.T) {
	s := newTestService(t, 16)
	h := NewHandler(s)
	// Cache every view in-process first, so the memos are still empty when
	// the HTTP writes start.
	want := make([]string, len(memoRoutes))
	for i, rt := range memoRoutes {
		v, err := rt.view(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = freshJSON(t, v)
	}
	const goroutines, rounds = 8, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, rt := range memoRoutes {
					path := rt.legacy
					if (g+r)%2 == 0 {
						path = rt.v1
					}
					code, body := serve(h, rt.method, path, rt.body)
					if code != http.StatusOK || body != want[i] {
						t.Errorf("%s %s: %d, body differs from a fresh encoding", rt.name, path, code)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Computed != int64(len(memoRoutes)) {
		t.Fatalf("computed %d, want %d: a hit recomputed", st.Computed, len(memoRoutes))
	}
}

// TestAnalyzeAcyclicityOnMiss: a cyclic schema is rejected every time —
// one request and one error each, never computed or cached — while an
// acyclic schema's repeat is a plain hit with the same bytes.
func TestAnalyzeAcyclicityOnMiss(t *testing.T) {
	s := newTestService(t, 16)
	h := NewHandler(s)
	for i, path := range []string{
		"/analyze?dataset=block&schema=A,B|B,C|A,C",
		"/v1/default/analyze?dataset=block&schema=A,B|B,C|A,C",
		"/analyze?dataset=block&schema=A,B|B,C|A,C",
	} {
		before := s.Stats()
		code, body := serve(h, "GET", path, "")
		if code != http.StatusBadRequest || !strings.Contains(body, "is cyclic") || !strings.HasPrefix(body, `{`+"\n"+`  "error"`) {
			t.Fatalf("request %d: %d %s", i, code, body)
		}
		after := s.Stats()
		if after.Requests != before.Requests+1 || after.Errors != before.Errors+1 ||
			after.Computed != before.Computed || after.CacheHits != before.CacheHits {
			t.Fatalf("request %d: stats %+v -> %+v", i, before, after)
		}
		if n := s.cache.Len(); n != 0 {
			t.Fatalf("request %d: cyclic schema cached (%d entries)", i, n)
		}
	}

	_, first := serve(h, "GET", "/analyze?dataset=block&schema=A,C|B,C", "")
	before := s.Stats()
	code, hit := serve(h, "GET", "/v1/default/analyze?dataset=block&schema=C,A|C,B", "")
	after := s.Stats()
	if code != http.StatusOK || hit != first {
		t.Fatalf("hit: %d, body differs from the computed response", code)
	}
	if after.Requests != before.Requests+1 || after.CacheHits != before.CacheHits+1 ||
		after.Computed != before.Computed || after.Errors != before.Errors {
		t.Fatalf("hit: stats %+v -> %+v", before, after)
	}
}

// TestAnalyzeBraceNamesKeyedApart: schema.String() renders bags between
// braces, so attribute names containing braces can make a cyclic schema
// render exactly like a cached acyclic one. The analyze key quotes every
// name, so the cyclic one must still be rejected rather than served the
// other's cached report.
func TestAnalyzeBraceNamesKeyedApart(t *testing.T) {
	const acyclic, cyclic = "a,b},{b,~c;a,~c", "a,b;b,~c;a,~c"
	sa, err := jointree.ParseSchema(acyclic)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := jointree.ParseSchema(cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if sa.String() != sc.String() || !jointree.IsAcyclic(sa) || jointree.IsAcyclic(sc) {
		t.Fatalf("fixture: %s (acyclic %v) vs %s (acyclic %v)", sa, jointree.IsAcyclic(sa), sc, jointree.IsAcyclic(sc))
	}
	s := New(16)
	csv := "a,b},{b,~c\n1,2,3,4\n1,2,5,6\n7,2,3,6\n"
	if _, err := s.Registry().Register("braces", strings.NewReader(csv), true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Analyze("braces", acyclic); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Analyze("braces", cyclic); err == nil || !strings.Contains(err.Error(), "is cyclic") {
			t.Fatalf("round %d: cyclic schema answered (err %v)", i, err)
		}
	}
	if st := s.Stats(); st.Computed != 1 || st.CacheHits != 1 || st.Errors != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestWriteJSONEncodingError: a value that cannot be encoded answers 500
// with the error envelope, with or without a body memo, and a memoized view
// keeps answering the same 500.
func TestWriteJSONEncodingError(t *testing.T) {
	for _, memo := range []bool{false, true} {
		view := &DiscoverView{Dataset: "block", Target: math.NaN()}
		if memo {
			view.cachedBody = newCachedBody()
		}
		writes := 1
		if memo {
			writes = 2
		}
		for i := 0; i < writes; i++ {
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, view)
			var env map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError ||
				!strings.Contains(env["error"], "encoding response") {
				t.Fatalf("memo %v write %d: %d %q", memo, i, rec.Code, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("memo %v write %d: content type %q", memo, i, ct)
			}
		}
		if memo && (view.memo.err == nil || view.memo.body != nil) {
			t.Fatalf("memo not filled with the error: %+v", view.memo)
		}
	}
}

// TestNonFiniteTarget: NaN and ±Inf targets are 400s naming the parameter on
// both routes, and nothing is computed or cached.
func TestNonFiniteTarget(t *testing.T) {
	s := newTestService(t, 16)
	h := NewHandler(s)
	for _, prefix := range []string{"/discover", "/v1/default/discover"} {
		for _, target := range []string{"NaN", "nan", "Inf", "%2BInf", "-Inf", "Infinity"} {
			code, body := serve(h, "GET", prefix+"?dataset=block&target="+target, "")
			var env map[string]string
			if err := json.Unmarshal([]byte(body), &env); err != nil || code != http.StatusBadRequest ||
				!strings.Contains(env["error"], "parameter target must be finite") {
				t.Fatalf("%s target=%s: %d %s", prefix, target, code, body)
			}
		}
	}
	if st := s.Stats(); st.Computed != 0 || s.cache.Len() != 0 {
		t.Fatalf("non-finite target computed %d, cached %d", st.Computed, s.cache.Len())
	}
}

// TestHitEchoesCallersSpelling: a hit whose request is spelled differently
// from the cached one (kind case, attribute order) still counts as a hit,
// echoes the caller's own request, and leaves the cached bytes for the
// original spelling unchanged.
func TestHitEchoesCallersSpelling(t *testing.T) {
	type variant struct{ path, body, echo string }
	cases := []struct {
		name string
		a, b variant
	}{
		{"batch kind",
			variant{"/batch", `{"dataset":"block","queries":[{"kind":"MI","a":["A"],"b":["B"]}]}`, `"kind": "MI"`},
			variant{"/v1/default/batch", `{"dataset":"block","queries":[{"kind":"mi","a":["A"],"b":["B"]}]}`, `"kind": "mi"`}},
		{"batch attrs",
			variant{"/batch", `{"dataset":"block","queries":[{"kind":"entropy","attrs":["B","A"]}]}`, `"B",` + "\n" + `          "A"`},
			variant{"/v1/default/batch", `{"dataset":"block","queries":[{"kind":"entropy","attrs":["A","B"]}]}`, `"A",` + "\n" + `          "B"`}},
		{"entropy attrs",
			variant{"/entropy?dataset=block&attrs=B,A", "", `"B",` + "\n" + `    "A"`},
			variant{"/v1/default/entropy?dataset=block&attrs=A,B", "", `"A",` + "\n" + `    "B"`}},
	}
	method := func(v variant) string {
		if v.body != "" {
			return "POST"
		}
		return "GET"
	}
	for _, tc := range cases {
		for _, order := range [][2]variant{{tc.a, tc.b}, {tc.b, tc.a}} {
			s := newTestService(t, 16)
			h := NewHandler(s)
			first, second := order[0], order[1]
			_, firstBody := serve(h, method(first), first.path, first.body)
			code, body := serve(h, method(second), second.path, second.body)
			if code != http.StatusOK || !strings.Contains(body, second.echo) {
				t.Fatalf("%s: %s after %s: %d, want echo %s in\n%s", tc.name, second.path, first.path, code, second.echo, body)
			}
			if st := s.Stats(); st.Computed != 1 || st.CacheHits != 1 {
				t.Fatalf("%s: computed %d, cache_hits %d; want 1 and 1", tc.name, st.Computed, st.CacheHits)
			}
			if _, again := serve(h, method(first), first.path, first.body); again != firstBody {
				t.Fatalf("%s: the original spelling's hit changed after a variant hit", tc.name)
			}
		}
	}
}
