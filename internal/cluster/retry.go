package cluster

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"repro/internal/server"
)

// Retry policy for idempotent hops: a transport failure (connection
// refused, reset, timeout — server.StatusCode(err) == 0) on a GET,
// HEAD, probe, or replication copy is retried in place with capped
// exponential backoff plus jitter before the caller falls over to the
// next replica. Server replies — any HTTP status — are never retried:
// the node answered, retrying the same node cannot change a 404 or a
// 409, and non-idempotent ops (task loads) never come through here at
// all (failover across owners is their retry).

const (
	// defaultRetryAttempts is the total tries per hop (1 initial +
	// 2 retries) when Options.RetryAttempts is zero.
	defaultRetryAttempts = 3
	// defaultRetryBase is the first backoff delay; it doubles per
	// attempt up to retryBackoffCap.
	defaultRetryBase = 25 * time.Millisecond
	// retryBackoffCap bounds a single backoff sleep so a misconfigured
	// base cannot stall a hop longer than the hop timeout itself.
	retryBackoffCap = time.Second
)

// backoffSleep sleeps base·2^attempt (capped, ±50% jitter), returning
// early when ctx is done. attempt counts from 0 for the delay after
// the first failure.
func backoffSleep(ctx context.Context, base time.Duration, attempt int) {
	if base <= 0 {
		base = defaultRetryBase
	}
	d := base << uint(attempt)
	if d > retryBackoffCap || d <= 0 {
		d = retryBackoffCap
	}
	// Full jitter on the upper half: [d/2, d). Desynchronizes the
	// retry storms of many gateways hammering one recovering node.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// retryable reports whether an error is a transport failure worth
// retrying against the same node. Context cancellation means the
// caller gave up, not that the node misbehaved, and a node that left
// the registry stays gone.
func retryable(ctx context.Context, err error) bool {
	return err != nil && server.StatusCode(err) == 0 && !errors.Is(err, errNotMember) && ctx.Err() == nil
}

// retryTransport runs op against one node, retrying transport-level
// failures up to the gateway's configured attempts with backoff. Each
// attempt gets its own hop-bounded context and is observed for health
// accounting, so a node that flaps mid-retry still transitions
// suspect→down. op must be idempotent.
func (g *Gateway) retryTransport(ctx context.Context, nodeName string, op func(ctx context.Context) error) error {
	var err error
	for a := 0; ; a++ {
		hctx, cancel := context.WithTimeout(ctx, g.hop)
		err = op(hctx)
		cancel()
		g.observe(nodeName, err)
		if !retryable(ctx, err) || a+1 >= g.retryAttempts {
			return err
		}
		g.retries.Add(1)
		backoffSleep(ctx, g.retryBase, a)
	}
}
