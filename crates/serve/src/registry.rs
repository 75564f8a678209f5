//! Named, thread-safe registry of loaded models with LRU eviction.

use awesym_partition::CompiledModel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Counter snapshot for observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RegistryStats {
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups.
    pub misses: u64,
    /// Models evicted to stay under capacity.
    pub evictions: u64,
    /// Models currently resident.
    pub resident: u64,
}

struct Entry {
    model: Arc<CompiledModel>,
    last_used: u64,
}

struct Inner {
    entries: HashMap<String, Entry>,
    tick: u64,
}

/// Thread-safe model store: `RwLock` map plus least-recently-used
/// eviction at a fixed capacity. Lookups hand out `Arc` clones, so an
/// evicted model stays alive for requests already holding it.
pub struct ModelRegistry {
    inner: RwLock<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ModelRegistry {
    /// Creates a registry holding at most `capacity` models (min 1).
    pub fn new(capacity: usize) -> Self {
        ModelRegistry {
            inner: RwLock::new(Inner {
                entries: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts (or replaces) a model under `name`, evicting the
    /// least-recently-used entry when over capacity. Returns the evicted
    /// name, if any.
    ///
    /// # Panics
    ///
    /// Panics if the lock was poisoned by a panicking writer.
    pub fn insert(&self, name: &str, model: CompiledModel) -> Option<String> {
        let mut g = self.inner.write().expect("registry lock poisoned");
        g.tick += 1;
        let tick = g.tick;
        g.entries.insert(
            name.to_string(),
            Entry {
                model: Arc::new(model),
                last_used: tick,
            },
        );
        if g.entries.len() <= self.capacity {
            return None;
        }
        let victim = g
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())?;
        let evicted = g.entries.remove(&victim);
        // Free the evicted model (if no request still holds it) after
        // the lock, not under it.
        drop(g);
        drop(evicted);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Some(victim)
    }

    /// Looks up a model, refreshing its recency. Counts a hit or a miss.
    ///
    /// # Panics
    ///
    /// Panics if the lock was poisoned by a panicking writer.
    pub fn get(&self, name: &str) -> Option<Arc<CompiledModel>> {
        // A hit must bump recency, which mutates — take the write lock.
        let mut g = self.inner.write().expect("registry lock poisoned");
        g.tick += 1;
        let tick = g.tick;
        match g.entries.get_mut(name) {
            Some(e) => {
                e.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.model))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Removes a model by name; true when something was removed.
    ///
    /// # Panics
    ///
    /// Panics if the lock was poisoned by a panicking writer.
    pub fn remove(&self, name: &str) -> bool {
        self.inner
            .write()
            .expect("registry lock poisoned")
            .entries
            .remove(name)
            .is_some()
    }

    /// Number of resident models.
    ///
    /// # Panics
    ///
    /// Panics if the lock was poisoned by a panicking writer.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("registry lock poisoned")
            .entries
            .len()
    }

    /// True when no models are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident model names, sorted.
    ///
    /// # Panics
    ///
    /// Panics if the lock was poisoned by a panicking writer.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .inner
            .read()
            .expect("registry lock poisoned")
            .entries
            .keys()
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident: self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awesym_circuit::generators::fig1_rc;
    use awesym_partition::SymbolBinding;

    fn tiny_model() -> CompiledModel {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c = &w.circuit;
        let bindings = [SymbolBinding::capacitance(
            "c1",
            vec![c.find("C1").unwrap()],
        )];
        CompiledModel::build(c, w.input, w.output, &bindings, 2).unwrap()
    }

    #[test]
    fn insert_get_counts() {
        let reg = ModelRegistry::new(4);
        assert!(reg.is_empty());
        reg.insert("a", tiny_model());
        assert_eq!(reg.len(), 1);
        assert!(reg.get("a").is_some());
        assert!(reg.get("zzz").is_none());
        let s = reg.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.resident), (1, 1, 0, 1));
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let reg = ModelRegistry::new(2);
        assert_eq!(reg.capacity(), 2);
        reg.insert("a", tiny_model());
        reg.insert("b", tiny_model());
        // Touch "a" so "b" is the LRU entry when "c" arrives.
        assert!(reg.get("a").is_some());
        let evicted = reg.insert("c", tiny_model());
        assert_eq!(evicted.as_deref(), Some("b"));
        assert_eq!(reg.names(), vec!["a".to_string(), "c".to_string()]);
        assert_eq!(reg.stats().evictions, 1);
        // An Arc handed out before eviction keeps working.
        let held = reg.get("a").unwrap();
        reg.insert("d", tiny_model());
        reg.insert("e", tiny_model());
        assert!(held.op_count() > 0);
    }

    #[test]
    fn replace_and_remove() {
        let reg = ModelRegistry::new(2);
        reg.insert("a", tiny_model());
        assert!(reg.insert("a", tiny_model()).is_none());
        assert_eq!(reg.len(), 1);
        assert!(reg.remove("a"));
        assert!(!reg.remove("a"));
        assert!(reg.is_empty());
    }
}
