package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

var acceptedTenant = regexp.MustCompile(`^[a-zA-Z0-9_.-]{1,64}$`)

// FuzzSubmit drives POST /v1/jobs with arbitrary bodies and traceparent
// headers against an unstarted server with a small queue. Each input is
// submitted twice, so the coalescing path runs too. The handler must never
// panic, must answer with a status the API documents, and must admit only
// jobs whose tenant and priority are in range. Seeds live in
// testdata/fuzz/FuzzSubmit.
func FuzzSubmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, body, traceparent string) {
		s := New(Config{QueueDepth: 2, TenantQuota: 1})
		for range 2 {
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
			req.Header.Set("traceparent", traceparent)
			rec := httptest.NewRecorder()
			s.handleSubmit(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusAccepted:
			case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				continue
			default:
				t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
			}
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("accepted body %q answered with undecodable status: %v", body, err)
			}
			if !acceptedTenant.MatchString(st.Spec.Tenant) {
				t.Fatalf("accepted tenant %q for body %q", st.Spec.Tenant, body)
			}
			if p := st.Spec.Priority; p < -100 || p > 100 {
				t.Fatalf("accepted priority %d for body %q", p, body)
			}
		}
	})
}
