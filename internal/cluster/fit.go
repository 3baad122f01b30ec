package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"reusetool/internal/predict"
	"reusetool/internal/server"
	"reusetool/pkg/client"
)

// Cross-input scaling models on the cluster: POST /v1/fit schedules the
// training analyses as related jobs across the ring (each lands on its
// own cache-key owner, warming the fleet), collects their cache entries
// onto the model key's ring owner, then places the fit job there — so
// the fitting worker serves every training input from its warm cache.
// POST /v1/predict proxies synchronously to the model's ring owner.

func (c *Coordinator) handleFit(w http.ResponseWriter, r *http.Request) {
	var req client.FitRequest
	if !server.DecodeRequest(w, r, c.cfg.MaxBodyBytes, &req) {
		return
	}
	// The model key is the shard address AND the early soundness gate:
	// unsound sampling never reaches a worker.
	key, err := server.ModelKeyFor(req)
	if err != nil {
		code := client.CodeInvalidRequest
		if errors.Is(err, predict.ErrUnsoundTraining) {
			code = client.CodeUnsoundTrainingInput
		}
		server.WriteError(w, http.StatusBadRequest, code, "%v", err)
		return
	}
	trainReqs, err := server.TrainingRequests(req)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "%v", err)
		return
	}

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		server.WriteError(w, http.StatusServiceUnavailable, client.CodeDraining, "coordinator is draining")
		return
	}
	if c.ring.Len() == 0 {
		c.mu.Unlock()
		server.WriteError(w, http.StatusServiceUnavailable, client.CodeUnavailable, "no healthy workers")
		return
	}
	c.nextID++
	id := fmt.Sprintf("c-%06d", c.nextID)
	j := &proxyJob{
		id:     id,
		key:    key,
		fitReq: &req,
		done:   make(chan struct{}),
		doc: client.Job{
			APIVersion: client.APIVersion,
			ID:         id,
			Status:     client.JobQueued,
			Key:        key,
			Submitted:  time.Now().UTC().Format(time.RFC3339Nano),
		},
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.watchers.Add(1)
	c.mu.Unlock()

	c.metrics.FitsProxied.Add(1)
	go c.watchFit(j, trainReqs)
	server.WriteJSON(w, http.StatusAccepted, j.snapshot())
}

// watchFit drives one fit end to end: schedule the training analyses as
// related jobs across the ring, gather their cache entries onto the fit
// owner, then hand over to the ordinary watch loop to place and track
// the fit job itself. Like watch, it roots its own contexts — the fit
// must outlive the submission request.
//
//reuse:ctx-root
func (c *Coordinator) watchFit(j *proxyJob, trainReqs []client.AnalyzeRequest) {
	children := make([]*proxyJob, 0, len(trainReqs))
	for i, tr := range trainReqs {
		key, err := server.CacheKeyFor(tr)
		if err != nil {
			c.watchers.Done()
			defer close(j.done)
			c.finishLocal(j, client.JobFailed, fmt.Sprintf("training run %d: %v", i, err))
			return
		}
		child := &proxyJob{
			id:   fmt.Sprintf("%s-t%d", j.id, i),
			key:  key,
			req:  tr,
			done: make(chan struct{}),
			doc: client.Job{
				APIVersion: client.APIVersion,
				ID:         fmt.Sprintf("%s-t%d", j.id, i),
				Status:     client.JobQueued,
				Key:        key,
				Submitted:  time.Now().UTC().Format(time.RFC3339Nano),
			},
		}
		c.mu.Lock()
		c.jobs[child.id] = child
		c.order = append(c.order, child.id)
		c.watchers.Add(1)
		c.mu.Unlock()
		c.metrics.TrainingJobsScheduled.Add(1)
		children = append(children, child)
		go c.watch(child)
	}

	for _, child := range children {
		<-child.done
	}
	for i, child := range children {
		if doc := child.snapshot(); doc.Status != client.JobDone {
			c.watchers.Done()
			defer close(j.done)
			c.finishLocal(j, client.JobFailed,
				fmt.Sprintf("training run %d (%s): %s: %s", i, child.id, doc.Status, doc.Error))
			return
		}
	}
	c.seedFitOwner(j.key, children)

	// The training inputs are in place; place and track the fit job like
	// any other. watch owns watchers.Done and close(j.done).
	c.watch(j)
}

// seedFitOwner copies each training run's cache entry from the node
// that ran it to the model key's ring owner, so the fit job — routed by
// that same key — finds every training input warm. Best-effort: a
// failed copy only costs the owner a re-run of one small input.
func (c *Coordinator) seedFitOwner(modelKey string, children []*proxyJob) {
	owners := c.ring.Successors(modelKey, 1)
	if len(owners) == 0 {
		return
	}
	owner := owners[0]
	for _, child := range children {
		doc := child.snapshot()
		if doc.Node == "" || doc.Node == owner {
			continue
		}
		entry, err := c.fetchCacheEntry(doc.Node, doc.Key)
		if err != nil {
			continue
		}
		_ = c.pushCacheEntry(owner, doc.Key, entry)
	}
}

// fetchCacheEntry GETs one gob cache entry from a worker's peer
// protocol. Runs on the watcher goroutine; contexts root here.
//
//reuse:ctx-root
func (c *Coordinator) fetchCacheEntry(node, key string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: cache get %s from %s: status %d", key, node, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxEntryTransferBytes))
}

// maxEntryTransferBytes bounds one cache-entry copy between workers.
const maxEntryTransferBytes int64 = 256 << 20

// pushCacheEntry PUTs a gob cache entry onto a worker. Runs on the
// watcher goroutine; contexts root here.
//
//reuse:ctx-root
func (c *Coordinator) pushCacheEntry(node, key string, entry []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, node+"/v1/cache/"+key, bytes.NewReader(entry))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("cluster: cache put %s to %s: status %d", key, node, resp.StatusCode)
	}
	return nil
}

// handlePredict proxies a what-if query synchronously to the model
// key's ring owner, walking successors on transport failure. The reply
// is the worker's own — microsecond-latency from its cached model.
func (c *Coordinator) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req client.PredictRequest
	if !server.DecodeRequest(w, r, c.cfg.MaxBodyBytes, &req) {
		return
	}
	key := req.Model
	if key == "" {
		var err error
		if key, err = server.ModelKeyFor(server.FitSpec(req)); err != nil {
			code := client.CodeInvalidRequest
			if errors.Is(err, predict.ErrUnsoundTraining) {
				code = client.CodeUnsoundTrainingInput
			}
			server.WriteError(w, http.StatusBadRequest, code, "%v", err)
			return
		}
	}

	c.metrics.PredictsProxied.Add(1)
	var lastErr error
	for _, url := range c.ring.Successors(key, len(c.cfg.Peers)) {
		ns, ok := c.healthyNode(url)
		if !ok {
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
		resp, err := ns.cli.Predict(ctx, req)
		cancel()
		if err == nil {
			server.WriteJSON(w, http.StatusOK, resp)
			return
		}
		lastErr = err
		var apiErr *client.Error
		if errors.As(err, &apiErr) && !apiErr.Temporary() {
			// The worker answered conclusively (no model, bad binding):
			// forward its verdict rather than asking another node.
			server.WriteError(w, apiErr.Status, apiErr.Code, "%s", apiErr.Message)
			return
		}
		c.noteDead(ns, true)
	}
	if lastErr != nil {
		server.WriteError(w, http.StatusServiceUnavailable, client.CodeUnavailable, "no worker answered: %v", lastErr)
		return
	}
	server.WriteError(w, http.StatusServiceUnavailable, client.CodeUnavailable, "no healthy workers")
}
