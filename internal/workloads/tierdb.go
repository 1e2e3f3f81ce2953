package workloads

import (
	"container/list"

	"repro/internal/memsys"
	"repro/internal/sim"
)

// RedisCache is the in-memory key/value cache of the Fig. 13 mini
// data-center: an LRU over fixed-size values whose storage is carved
// from arenas — local memory, borrowed remote memory, or a mix. Its
// capacity is whatever the arenas hold; adding a lease's arena grows the
// cache, which is exactly how the Fig. 14 sweep enlarges Redis.
type RedisCache struct {
	H         *memsys.Hierarchy
	ValueSize int

	arenas  []*Arena
	free    []uint64 // recycled value slots
	lru     *list.List
	entries map[int]*list.Element

	Hits   int64
	Misses int64
}

type redisEnt struct {
	key   int
	addr  uint64
	value uint64 // real stored value (checksum-sized)
}

// NewRedisCache builds an empty cache over the given storage arenas.
func NewRedisCache(h *memsys.Hierarchy, valueSize int, arenas ...*Arena) *RedisCache {
	return &RedisCache{
		H:         h,
		ValueSize: valueSize,
		arenas:    arenas,
		lru:       list.New(),
		entries:   make(map[int]*list.Element),
	}
}

// AddArena grows the cache with more storage (e.g. a new memory lease).
func (r *RedisCache) AddArena(a *Arena) { r.arenas = append(r.arenas, a) }

// CapacityEntries reports how many values the cache can hold in total.
func (r *RedisCache) CapacityEntries() int {
	cap := len(r.free) + r.lru.Len()
	for _, a := range r.arenas {
		cap += int(a.Remaining() / uint64(r.ValueSize))
	}
	return cap
}

// Len reports the current entry count.
func (r *RedisCache) Len() int { return r.lru.Len() }

// allocSlot finds storage for one value, evicting LRU entries if full.
func (r *RedisCache) allocSlot(p *sim.Proc) uint64 {
	if n := len(r.free); n > 0 {
		addr := r.free[n-1]
		r.free = r.free[:n-1]
		return addr
	}
	for _, a := range r.arenas {
		if a.Remaining() >= uint64(r.ValueSize) {
			return a.Alloc(uint64(r.ValueSize), 64)
		}
	}
	// Evict the LRU entry and reuse its slot.
	back := r.lru.Back()
	if back == nil {
		panic("workloads: redis cache has no storage arenas")
	}
	ent := back.Value.(*redisEnt)
	r.lru.Remove(back)
	delete(r.entries, ent.key)
	r.H.Compute(p, 200) // eviction bookkeeping
	return ent.addr
}

// Get returns the cached value for key, reading the value storage, or
// reports a miss.
func (r *RedisCache) Get(p *sim.Proc, key int) (uint64, bool) {
	el, ok := r.entries[key]
	r.H.Compute(p, opsPerQuery)
	if !ok {
		r.Misses++
		return 0, false
	}
	ent := el.Value.(*redisEnt)
	r.lru.MoveToFront(el)
	r.H.Read(p, ent.addr, r.ValueSize)
	r.Hits++
	return ent.value, true
}

// Set inserts or updates a key, writing the value storage.
func (r *RedisCache) Set(p *sim.Proc, key int, value uint64) {
	if el, ok := r.entries[key]; ok {
		ent := el.Value.(*redisEnt)
		ent.value = value
		r.lru.MoveToFront(el)
		r.H.Write(p, ent.addr, r.ValueSize)
		return
	}
	addr := r.allocSlot(p)
	el := r.lru.PushFront(&redisEnt{key: key, addr: addr, value: value})
	r.entries[key] = el
	r.H.Write(p, addr, r.ValueSize)
}

// MySQLModel is the backing database of the web-service architecture:
// an x86 server outside the Venice cluster reached over conventional
// networking. Misses pay its full query cost; the model keeps real
// values so the tier returns correct data.
type MySQLModel struct {
	// QueryTime is the end-to-end cost of one primary-key lookup on the
	// (disk-bound) database server, including the Ethernet round trip.
	QueryTime sim.Dur

	Queries int64
}

// Lookup fetches the authoritative value for key.
func (m *MySQLModel) Lookup(p *sim.Proc, key int) uint64 {
	p.Sleep(m.QueryTime)
	m.Queries++
	return mysqlValue(key)
}

// mysqlValue is the deterministic authoritative value for a key.
func mysqlValue(key int) uint64 { return uint64(key)*0x9E3779B97F4A7C15 + 1 }

// TierDB glues the tiers together: check Redis, fall back to MySQL and
// fill the cache — the query path of Fig. 13.
type TierDB struct {
	Redis *RedisCache
	MySQL *MySQLModel
	// ClientOverhead is the per-query application-server + client cost
	// (parse, dispatch, response marshaling).
	ClientOverhead sim.Dur
}

// Query serves one client request for key and returns its value.
func (t *TierDB) Query(p *sim.Proc, key int) uint64 {
	if t.ClientOverhead > 0 {
		p.Sleep(t.ClientOverhead)
	}
	if v, ok := t.Redis.Get(p, key); ok {
		return v
	}
	v := t.MySQL.Lookup(p, key)
	t.Redis.Set(p, key, v)
	return v
}

// RunQueries issues count random queries over keyspace keys and returns
// the elapsed virtual time.
func (t *TierDB) RunQueries(p *sim.Proc, rng *sim.RNG, keys, count int) sim.Dur {
	start := p.Now()
	for i := 0; i < count; i++ {
		key := rng.Intn(keys)
		v := t.Query(p, key)
		if v != mysqlValue(key) {
			panic("workloads: tier returned wrong value")
		}
	}
	t.Redis.H.Flush(p)
	return p.Now().Sub(start)
}
