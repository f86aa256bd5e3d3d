package core

import (
	"errors"
	"fmt"
	"sort"

	"deisago/internal/dask"
	"deisago/internal/metrics"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// Mode selects the bridging protocol.
type Mode int

const (
	// ModeExternal is this paper's design (DEISA2/DEISA3): external
	// tasks, contracts signed once, no per-timestep metadata.
	ModeExternal Mode = iota
	// ModeDEISA1 is the HiPC'21 baseline: plain scatter with fresh keys
	// plus a per-timestep metadata message through the rank's distributed
	// queue, and the Dask default 5 s heartbeat.
	ModeDEISA1
)

// Deisa1QueueName returns the distributed-queue name of one rank's
// DEISA1 metadata channel (the baseline uses Nbr_ranks queues, §2.1).
func Deisa1QueueName(rank int) string { return fmt.Sprintf("deisa1-meta-%d", rank) }

// BridgeConfig configures one rank's bridge.
type BridgeConfig struct {
	Rank              int
	Cluster           *dask.Cluster
	Node              netsim.NodeID
	HeartbeatInterval vtime.Dur
	Mode              Mode
	// ScatterBytes, when positive, overrides the modelled wire size of
	// each published block (the harness models paper-scale blocks while
	// shipping small arrays).
	ScatterBytes int64
	// MetaEntries is the number of decomposition-metadata entries a
	// DEISA1 bridge refreshes on the scheduler every timestep (typically
	// the number of ranks). Ignored in external mode.
	MetaEntries int
	// PlaceWorker overrides the worker-preselection policy; nil selects
	// VirtualArray.WorkerForBlock (time-invariant spatial placement).
	// Used by placement ablations.
	PlaceWorker func(va *VirtualArray, pos []int, numWorkers int) int
	// Retry bounds the external-mode publish retry loop; the zero value
	// selects DefaultRetryPolicy.
	Retry RetryPolicy
	// Interceptor, when non-nil, sees every external-mode publish
	// attempt and may drop or delay it (fault injection). Leave nil for
	// fault-free runs — beware assigning a typed nil.
	Interceptor PublishInterceptor
	// TieBreak, when non-nil, chooses the failover target among all
	// live non-paused workers instead of the first one in scan order
	// (schedule-space exploration; see dask.TieBreaker). nil keeps the
	// deterministic production scan.
	TieBreak dask.TieBreaker
	// Namespace, when non-empty, scopes this bridge to one job on a
	// shared cluster: declared arrays are stamped with it (so block
	// keys become "<ns>/deisa-..."), the handshake Variables and DEISA1
	// queues are prefixed "<ns>/", and the bridge's instruments carry a
	// tenant label. Must match the tenant name registered on the
	// cluster and the namespace of the job's adaptor.
	Namespace string
}

// Bridge is the simulation-side endpoint of the coupling: one per MPI
// rank, built on a dask Client (§2.1). Rank 0 additionally publishes the
// virtual-array descriptors when contracts are signed.
type Bridge struct {
	cfg      BridgeConfig
	client   *dask.Client
	arrays   map[string]*VirtualArray
	contract *Contract
	ready    bool

	// Registry handles (component "bridge", labeled by rank).
	mShipped      *metrics.Counter // blocks accepted and sent
	mFiltered     *metrics.Counter // blocks skipped by the contract filter
	mRetries      *metrics.Counter // publish attempts retried
	mFailovers    *metrics.Counter // scatters redirected off a dead target
	mRepublished  *metrics.Counter // lost blocks re-sent
	mPublishOK    *metrics.Counter // successful external scatters (incl. republish)
	mShippedBytes *metrics.Counter // modelled wire bytes of successful scatters

	// published remembers every external-mode block this bridge sent, so
	// blocks lost with a worker (the scheduler reverts their key to the
	// external state) can be republished from the producer's copy.
	// publishedKeys keeps first-publish order — each rank publishes its
	// blocks in deterministic timestep order, so scanning it replaces the
	// per-call key sort RepublishLost used to pay.
	published     map[taskgraph.Key]publishedBlock
	publishedKeys []taskgraph.Key

	// scatterBuf is the one-item scratch slice handed to Client.Scatter,
	// which consumes it synchronously and does not retain it — so the
	// per-publish slice allocation of the seed is gone. A Bridge is owned
	// by a single rank goroutine, so no lock is needed.
	scatterBuf [1]dask.ScatterItem
}

type publishedBlock struct {
	array string
	pos   []int
	data  *ndarray.Array
}

// NewBridge connects a bridge to the cluster.
func NewBridge(cfg BridgeConfig) *Bridge {
	reg := cfg.Cluster.Metrics()
	// Namespaced bridges additionally label their instruments with the
	// tenant, so per-tenant fabric traffic (shipped_bytes{tenant}) is
	// attributable at the bridge boundary; un-namespaced bridges keep
	// the original rank-only series.
	lbls := make([]metrics.Label, 0, 2)
	lbls = append(lbls, metrics.LInt("rank", cfg.Rank))
	if cfg.Namespace != "" {
		lbls = append(lbls, metrics.L("tenant", cfg.Namespace))
	}
	name := fmt.Sprintf("bridge-%d", cfg.Rank)
	if cfg.Namespace != "" {
		name = cfg.Namespace + "/" + name
	}
	return &Bridge{
		cfg:           cfg,
		client:        cfg.Cluster.NewClient(name, cfg.Node, cfg.HeartbeatInterval),
		arrays:        map[string]*VirtualArray{},
		published:     map[taskgraph.Key]publishedBlock{},
		mShipped:      reg.Counter("bridge", "blocks_shipped", lbls...),
		mFiltered:     reg.Counter("bridge", "blocks_filtered", lbls...),
		mRetries:      reg.Counter("bridge", "retries", lbls...),
		mFailovers:    reg.Counter("bridge", "failovers", lbls...),
		mRepublished:  reg.Counter("bridge", "republished", lbls...),
		mPublishOK:    reg.Counter("bridge", "publish_ok", lbls...),
		mShippedBytes: reg.Counter("bridge", "shipped_bytes", lbls...),
	}
}

// blockBytes returns the modelled wire size of one published block.
func (b *Bridge) blockBytes(data *ndarray.Array) int64 {
	if b.cfg.ScatterBytes > 0 {
		return b.cfg.ScatterBytes
	}
	return dask.SizeOf(data)
}

// Rank returns the bridge's MPI rank.
func (b *Bridge) Rank() int { return b.cfg.Rank }

// DeclareArray registers a virtual array this rank contributes to. All
// ranks declare the same arrays; rank 0's declarations are published.
func (b *Bridge) DeclareArray(va *VirtualArray) error {
	if b.ready {
		return fmt.Errorf("core: DeclareArray after Init")
	}
	if b.cfg.Namespace != "" && va.Namespace == "" {
		// Arrays inherit the bridge's job namespace, so YAML-declared
		// arrays (the PDI plugin path) scope automatically.
		va.Namespace = b.cfg.Namespace
	}
	if err := va.Validate(); err != nil {
		return err
	}
	if _, dup := b.arrays[va.Name]; dup {
		return fmt.Errorf("core: array %q declared twice", va.Name)
	}
	b.arrays[va.Name] = va
	return nil
}

// Array returns a declared virtual array.
func (b *Bridge) Array(name string) (*VirtualArray, bool) {
	va, ok := b.arrays[name]
	return va, ok
}

// Init performs the contract handshake (§2.1 step 1, "Sign contracts"):
// rank 0 publishes the descriptors through the deisa-arrays Variable;
// every bridge then blocks until the adaptor publishes the contract
// through the deisa-contract Variable. In DEISA1 mode there is no
// contract — rank 0 still publishes descriptors (the analytics must know
// shapes), and bridges proceed immediately, sending everything.
//
// It returns the virtual time at which the bridge may proceed.
func (b *Bridge) Init(at vtime.Time) (vtime.Time, error) {
	if b.ready {
		return at, fmt.Errorf("core: bridge already initialized")
	}
	if len(b.arrays) == 0 {
		return at, fmt.Errorf("core: no arrays declared")
	}
	b.client.Clock().Sync(at)
	if b.cfg.Rank == 0 {
		msg := &ArraysMsg{}
		names := make([]string, 0, len(b.arrays))
		for n := range b.arrays {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			msg.Arrays = append(msg.Arrays, b.arrays[n])
		}
		b.client.Variable(NamespacedVariable(b.cfg.Namespace, ArraysVariable)).Set(msg)
	}
	if b.cfg.Mode == ModeExternal {
		v := b.client.Variable(NamespacedVariable(b.cfg.Namespace, ContractVariable)).Get()
		contract, ok := v.(*Contract)
		if !ok {
			return b.client.Now(), fmt.Errorf("core: contract variable holds %T", v)
		}
		b.contract = contract
	}
	b.ready = true
	return b.client.Now(), nil
}

// Publish offers one block of one timestep to the coupling. In external
// mode the bridge checks the contract locally and, if the block is
// wanted, scatters it to its preselected worker under the deisa key,
// triggering the external→memory transition. In DEISA1 mode it scatters
// under the same key as plain data and pushes a metadata message into
// the rank's queue — the per-timestep traffic the paper eliminates.
//
// It returns the virtual completion time and whether the block was sent.
func (b *Bridge) Publish(arrayName string, pos []int, data *ndarray.Array, at vtime.Time) (vtime.Time, bool, error) {
	if !b.ready {
		return at, false, fmt.Errorf("core: Publish before Init")
	}
	va, ok := b.arrays[arrayName]
	if !ok {
		return at, false, fmt.Errorf("core: unknown array %q", arrayName)
	}
	b.client.Clock().Sync(at)
	key := va.BlockKey(pos)
	var worker int
	if b.cfg.PlaceWorker != nil {
		worker = b.cfg.PlaceWorker(va, pos, b.cfg.Cluster.NumWorkers())
	} else {
		worker = va.WorkerForBlock(pos, b.cfg.Cluster.NumWorkers())
	}

	switch b.cfg.Mode {
	case ModeExternal:
		if !b.contract.WantsBlock(arrayName, pos, va.TimeDim) {
			b.mFiltered.Inc()
			b.client.HeartbeatTick()
			return b.client.Now(), false, nil
		}
		step := 0
		if va.TimeDim >= 0 && va.TimeDim < len(pos) {
			step = pos[va.TimeDim]
		}
		if err := b.scatterExternal(key, data, step, worker); err != nil {
			return b.client.Now(), false, err
		}
		if prev, dup := b.published[key]; !dup {
			// First publish of this key: copy pos once for the republish
			// index. Re-publishes of the same key (same pos by
			// construction) only refresh the data reference.
			b.publishedKeys = append(b.publishedKeys, key)
			b.published[key] = publishedBlock{array: arrayName, pos: append([]int(nil), pos...), data: data}
		} else {
			prev.data = data
			b.published[key] = prev
		}
	case ModeDEISA1:
		b.scatterBuf[0] = dask.ScatterItem{Key: key, Value: data, Bytes: b.cfg.ScatterBytes}
		if err := b.client.Scatter(b.scatterBuf[:], false, worker); err != nil {
			return b.client.Now(), false, err
		}
		b.mShippedBytes.Add(b.blockBytes(data))
		// Per-timestep metadata through the rank's distributed queue,
		// plus the full decomposition-metadata refresh of the HiPC'21
		// protocol.
		b.client.Queue(NamespacedVariable(b.cfg.Namespace, Deisa1QueueName(b.cfg.Rank))).Put(string(key))
		if b.cfg.MetaEntries > 0 {
			b.client.SendMetadata(b.cfg.MetaEntries)
		}
	default:
		return at, false, fmt.Errorf("core: unknown mode %d", b.cfg.Mode)
	}
	b.mShipped.Inc()
	b.client.HeartbeatTick()
	return b.client.Now(), true, nil
}

// scatterExternal ships one block to an external key, retrying with
// exponential backoff on retryable failures: attempts dropped in flight
// by the fault interceptor, targets that died before the scheduler
// processed the update, and targets refusing the block under memory
// pressure. When the preselected worker is dead the block fails over to
// the next live worker with scatter capacity (scanning (worker+k) mod N
// and skipping workers paused at their memory watermark, so the
// failover target is a deterministic function of the dead set and the
// virtual-time memory state, not of timing). If every live candidate is
// paused, the first live one is taken anyway — its refusal feeds the
// same retry/backoff loop, which is the backpressure by construction.
func (b *Bridge) scatterExternal(key taskgraph.Key, data *ndarray.Array, step, worker int) error {
	policy := b.cfg.Retry.orDefault()
	started := b.client.Now()
	backoff := policy.BaseBackoff
	var lastErr error
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			if policy.Timeout > 0 && b.client.Now()+backoff > started+policy.Timeout {
				return fmt.Errorf("core: publish of %q timed out after %d attempts (%.3fs virtual): %w",
					key, attempt, b.client.Now()-started, lastErr)
			}
			b.client.Compute(backoff)
			backoff *= 2
			b.mRetries.Inc()
		}
		target := worker
		if !b.cfg.Cluster.WorkerAlive(target) {
			target = -1
			firstLive := -1
			var unpaused []int
			n := b.cfg.Cluster.NumWorkers()
			now := b.client.Now()
			for k := 1; k < n; k++ {
				cand := (worker + k) % n
				if !b.cfg.Cluster.WorkerAlive(cand) {
					continue
				}
				if firstLive < 0 {
					firstLive = cand
				}
				if b.cfg.Cluster.WorkerPaused(cand, now) {
					continue
				}
				if b.cfg.TieBreak == nil {
					target = cand
					break
				}
				unpaused = append(unpaused, cand)
			}
			if tb := b.cfg.TieBreak; tb != nil && len(unpaused) > 0 {
				// Any live non-paused worker is a legal target; the
				// breaker chooses among them in ascending-id order.
				sort.Ints(unpaused)
				pick := tb.Pick(dask.Decision{Point: dask.PointFailover,
					Key: fmt.Sprintf("%s#%d", key, attempt), N: len(unpaused)})
				if pick < 0 || pick >= len(unpaused) {
					pick = 0
				}
				target = unpaused[pick]
			}
			if target < 0 {
				target = firstLive
			}
			if target < 0 {
				return fmt.Errorf("core: publish of %q: no live workers", key)
			}
			b.mFailovers.Inc()
		}
		var fault PublishFault
		if b.cfg.Interceptor != nil {
			fault = b.cfg.Interceptor.OnPublish(b.cfg.Rank, step, attempt, key, b.client.Now())
		}
		if fault.Delay > 0 {
			b.client.Compute(fault.Delay)
		}
		if fault.Drop {
			lastErr = ErrPublishDropped
			continue
		}
		b.scatterBuf[0] = dask.ScatterItem{Key: key, Value: data, Bytes: b.cfg.ScatterBytes}
		err := b.client.Scatter(b.scatterBuf[:], true, target)
		if err == nil {
			b.mPublishOK.Inc()
			b.mShippedBytes.Add(b.blockBytes(data))
			return nil
		}
		if !errors.Is(err, dask.ErrWorkerDied) && !errors.Is(err, dask.ErrWorkerPaused) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("core: publish of %q failed after %d attempts: %w", key, policy.MaxAttempts, lastErr)
}

// RepublishLost re-sends every block this bridge published whose key the
// scheduler has reverted to the external state (its worker died taking
// the bytes with it). It returns the number of blocks republished. Call
// after fault injection settles, and repeat until it returns 0.
func (b *Bridge) RepublishLost(at vtime.Time) (int, error) {
	if !b.ready || b.cfg.Mode != ModeExternal {
		return 0, nil
	}
	b.client.Clock().Sync(at)
	n := 0
	for _, key := range b.publishedKeys {
		state, ok := b.cfg.Cluster.TaskState(key)
		if !ok || state != dask.StateExternal {
			continue
		}
		pb := b.published[key]
		va := b.arrays[pb.array]
		step := 0
		if va.TimeDim >= 0 && va.TimeDim < len(pb.pos) {
			step = pb.pos[va.TimeDim]
		}
		var worker int
		if b.cfg.PlaceWorker != nil {
			worker = b.cfg.PlaceWorker(va, pb.pos, b.cfg.Cluster.NumWorkers())
		} else {
			worker = va.WorkerForBlock(pb.pos, b.cfg.Cluster.NumWorkers())
		}
		if err := b.scatterExternal(key, pb.data, step, worker); err != nil {
			return n, fmt.Errorf("core: republish of %q: %w", key, err)
		}
		b.mRepublished.Inc()
		n++
	}
	return n, nil
}

// Stats returns how many blocks were sent and skipped (contract filter),
// read from the bridge's registry series. Bridges with the same (rank,
// namespace) on one cluster share one series, so a bridge re-created
// after a failure reports the totals of every incarnation.
func (b *Bridge) Stats() (sent, skipped int64) {
	return b.mShipped.Load(), b.mFiltered.Load()
}
