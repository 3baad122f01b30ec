package server

import (
	"net/http"

	"reusetool/internal/reusecheck"
	"reusetool/pkg/client"
)

// CheckHandler serves POST /v1/check: the static reuse checker run
// synchronously over one program. It is a free function — checks need
// no scheduler, cache or other daemon state — so the cluster
// coordinator mounts the identical handler and the v1 surface stays
// uniform across worker and coordinator. maxBodyBytes <= 0 selects the
// default request cap (16 MiB).
func CheckHandler(maxBodyBytes int64) http.HandlerFunc {
	if maxBodyBytes <= 0 {
		maxBodyBytes = 16 << 20
	}
	return func(w http.ResponseWriter, r *http.Request) {
		var req client.CheckRequest
		if !DecodeRequest(w, r, maxBodyBytes, &req) {
			return
		}
		resp, err := runCheckRequest(req)
		if err != nil {
			WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "%v", err)
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// runCheckRequest validates a check request the way /v1/analyze
// validates its target (resolveTarget) and runs the checker.
func runCheckRequest(req client.CheckRequest) (*client.CheckResponse, error) {
	const file = "program.loop"
	t, err := resolveTarget(req.Workload, req.Program, file, req.Params, req.Hierarchy, req.Level)
	if err != nil {
		return nil, err
	}
	opts := reusecheck.Options{Params: req.Params, Hier: t.hier, Level: t.level}
	if req.Workload != "" {
		opts.AssumeInitialized = t.init != nil
	} else {
		opts.Initialized, opts.ParamLines, opts.File = t.meta.Inited, t.meta.ParamLines, file
	}
	info, err := t.prog.Finalize()
	if err != nil {
		return nil, err
	}
	diags := reusecheck.Check(info, opts)
	resp := &client.CheckResponse{
		APIVersion:  client.APIVersion,
		Program:     t.prog.Name,
		Findings:    reusecheck.Findings(diags),
		Diagnostics: make([]client.CheckDiagnostic, len(diags)),
	}
	for i, d := range diags {
		resp.Diagnostics[i] = client.CheckDiagnostic{
			File:         d.File,
			Line:         d.Line,
			Code:         d.Code,
			Severity:     d.Severity.String(),
			Msg:          d.Msg,
			Hint:         d.Hint,
			MissDelta:    d.MissDelta,
			Level:        d.Level,
			Transform:    d.Transform,
			Legality:     d.Legality,
			LegalityNote: d.LegalityNote,
		}
	}
	return resp, nil
}
