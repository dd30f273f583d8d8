package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"vxml/internal/httpkit"
)

// nodeCallError is a decoded non-2xx node reply, kept structured so retry
// logic can classify it (stale generation, unknown view, …).
type nodeCallError struct {
	Status int
	Code   string
	Msg    string
	// Gen is the node's current generation on stale_generation replies.
	Gen uint64
}

func (e *nodeCallError) Error() string {
	return fmt.Sprintf("node replied %d (%s): %s", e.Status, e.Code, e.Msg)
}

// errorFromResponse drains a non-2xx reply into a nodeCallError.
func errorFromResponse(resp *http.Response) error {
	var body httpkit.ErrorBody
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body)
	if body.Error == "" {
		body.Error = http.StatusText(resp.StatusCode)
	}
	return &nodeCallError{Status: resp.StatusCode, Code: body.Code, Msg: body.Error, Gen: body.Gen}
}

// postJSON performs one JSON round trip against a node, bounded by the
// per-RPC timeout. A non-200 reply decodes into a *nodeCallError.
func (c *Coordinator) postJSON(ctx context.Context, baseURL, path string, in, out any) error {
	resp, cancel, err := c.postStream(ctx, baseURL, path, in)
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding %s reply: %w", path, err)
	}
	return nil
}

// postStream performs one POST against a node whose reply the caller
// reads. The returned cancel releases the per-RPC timeout that bounds the
// whole body read and must be called when the caller is done with the
// response. A non-200 reply decodes into a *nodeCallError.
func (c *Coordinator) postStream(ctx context.Context, baseURL, path string, in any) (*http.Response, context.CancelFunc, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	resp, err := c.post(ctx, baseURL, path, in)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		err := errorFromResponse(resp)
		resp.Body.Close()
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

func (c *Coordinator) post(ctx context.Context, baseURL, path string, in any) (*http.Response, error) {
	payload, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+pathPrefix+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.client.Do(req)
}

// staleGen extracts the node's current generation from a stale_generation
// reply.
func staleGen(err error) (uint64, bool) {
	var ne *nodeCallError
	if errors.As(err, &ne) && ne.Code == codeStaleGeneration {
		return ne.Gen, true
	}
	return 0, false
}

// isUnknownView reports an unknown_view reply — the trigger for the
// coordinator's self-healing view re-push.
func isUnknownView(err error) bool {
	var ne *nodeCallError
	return errors.As(err, &ne) && ne.Code == codeUnknownView
}

// invalidReply returns the node's message on an invalid reply: a
// deterministic rejection, since every member of a slot holds the same
// corpus and views at one generation.
func invalidReply(err error) (string, bool) {
	var ne *nodeCallError
	if errors.As(err, &ne) && ne.Code == codeInvalid {
		return ne.Msg, true
	}
	return "", false
}
