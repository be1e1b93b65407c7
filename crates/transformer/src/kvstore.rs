//! Paged key/value storage.
//!
//! The physical tensor behind PagedAttention: per layer, a flat `[total
//! slots × kv_dim]` array for keys and one for values, indexed by the slot
//! numbers that `gllm-kvcache`'s page tables hand out. Non-contiguous block
//! assignment is exactly what the paging tests exercise.

/// Flat paged K/V arrays for the layers one pipeline stage owns.
#[derive(Debug, Clone)]
pub struct PagedKvStore {
    keys: Vec<Vec<f32>>,
    values: Vec<Vec<f32>>,
    kv_dim: usize,
    num_slots: usize,
}

impl PagedKvStore {
    /// Storage for `num_layers` layers × `num_slots` token slots of
    /// `kv_dim`-wide keys and values.
    pub fn new(num_layers: usize, num_slots: usize, kv_dim: usize) -> Self {
        // A fresh zeroed allocation per buffer leaves untouched slots
        // unmapped; cloning one zeroed buffer would write every page.
        let buffers = || (0..num_layers).map(|_| vec![0.0; num_slots * kv_dim]).collect();
        Self {
            keys: buffers(),
            values: buffers(),
            kv_dim,
            num_slots,
        }
    }

    /// Token capacity (slots).
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// KV width.
    pub fn kv_dim(&self) -> usize {
        self.kv_dim
    }

    /// Write one token's key and value into `slot` of `layer` (layer index
    /// is stage-local).
    pub fn write(&mut self, layer: usize, slot: usize, key: &[f32], value: &[f32]) {
        assert_eq!(key.len(), self.kv_dim);
        assert_eq!(value.len(), self.kv_dim);
        assert!(slot < self.num_slots, "slot {slot} out of range");
        let at = slot * self.kv_dim;
        self.keys[layer][at..at + self.kv_dim].copy_from_slice(key);
        self.values[layer][at..at + self.kv_dim].copy_from_slice(value);
    }

    /// All of `layer`'s keys, `[num_slots × kv_dim]`: slot `s` is
    /// `[s·kv_dim, (s+1)·kv_dim)`.
    pub fn keys(&self, layer: usize) -> &[f32] {
        &self.keys[layer]
    }

    /// All of `layer`'s values, laid out as [`Self::keys`].
    pub fn values(&self, layer: usize) -> &[f32] {
        &self.values[layer]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_noncontiguous_slots() {
        let mut s = PagedKvStore::new(2, 8, 4);
        let k = vec![1.0, 2.0, 3.0, 4.0];
        let v = vec![5.0, 6.0, 7.0, 8.0];
        s.write(1, 6, &k, &v);
        s.write(1, 0, &v, &k);
        assert_eq!(&s.keys(1)[24..28], &k[..]);
        assert_eq!(&s.values(1)[24..28], &v[..]);
        assert_eq!(&s.keys(1)[0..4], &v[..]);
        // Other layers untouched.
        assert_eq!(&s.keys(0)[24..28], &[0.0; 4][..]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_slot() {
        let mut s = PagedKvStore::new(1, 4, 2);
        s.write(0, 4, &[0.0, 0.0], &[0.0, 0.0]);
    }
}
