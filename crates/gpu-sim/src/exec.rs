//! Functional execution of kernels, with event accounting.
//!
//! [`ItemCtx`] is the device-side API surface a kernel phase sees: work-item
//! ids, LDS, and global buffers. Every access goes through a method that
//! both performs the operation and records its cost. Global accesses come in
//! two flavours mirroring how one reasons about OpenCL memory:
//!
//! * `*_coalesced` — the wavefront accesses consecutive addresses, so a
//!   128-byte transaction is amortized over the lanes that share it
//!   (charged as `4 / transaction_bytes` transactions per element);
//! * plain (gather/scatter) — each lane pays a full transaction.
//!
//! [`GroupCtx`] is the whole group's view of one phase. The executor hands it
//! to [`Kernel::phase_group`], which by default builds each item's
//! [`ItemCtx`] in local-id order. A kernel may instead run a phase for the
//! whole group: its items as SIMD lanes over one shared LDS tile
//! ([`GroupCtx::lds`], [`GroupCtx::charge_items_lds_read`]), or its float4
//! loads and stores as one group-level primitive
//! ([`GroupCtx::stage_tile_f32x4`], [`GroupCtx::read_f32x4_rows`],
//! [`GroupCtx::gather_f32x4_indexed`], [`GroupCtx::write_f32x4_rows`],
//! [`GroupCtx::scatter_f32x4`]). Either way every item is charged,
//! race-recorded and write-logged in local-id order with the increments of
//! the [`ItemCtx`] calls it replaces, so memory, costs and race reports are
//! those of the item-by-item run; only the host work per item shrinks.
//!
//! Execution is deterministic regardless of host thread count: groups run
//! in index order (serially, or chunked over `par` worker threads with the
//! per-chunk global-memory write logs replayed in chunk order), items in
//! local-id order, phases separated by implicit barriers. The parallel
//! schedule is bit-exact against the serial one because work-groups are
//! independent within a launch — the OpenCL contract the kernels in this
//! workspace already obey: a group reads pre-launch global memory plus its
//! own writes, never another group's.

use crate::buffer::{BufF32, BufU32, BufU64, BufferPool};
use crate::cost::GroupCost;
use crate::kernel::{Control, GroupInfo, Kernel, NdRange};
use crate::race::{Race, RaceDetector, Space};
use crate::spec::DeviceSpec;
use serde::{Deserialize, Serialize};

/// Hard cap on phases executed per group — an infinite `Jump` loop in a
/// kernel panics instead of hanging the process.
const MAX_PHASES_PER_GROUP: usize = 1 << 24;

/// The device-side view one work-item has during one phase.
pub struct ItemCtx<'a> {
    /// Flat work-item index across the launch.
    pub global_id: usize,
    /// Index within the work-group.
    pub local_id: usize,
    /// Work-group index.
    pub group_id: usize,
    /// Items per group.
    pub local_size: usize,
    /// Total items in the launch.
    pub global_size: usize,
    lds: &'a mut [f32],
    pool: &'a mut BufferPool,
    cost: &'a mut GroupCost,
    inv_transaction_bytes: f64,
    race: Option<&'a mut RaceDetector>,
    log: Option<&'a mut WriteLog>,
}

/// Global-memory writes of one chunk of groups, in execution order. Replayed
/// into the master pool in chunk order, this reproduces the serial schedule's
/// final memory byte-for-byte (chunks are contiguous group ranges, so chunk
/// order *is* group order).
#[derive(Debug, Default)]
struct WriteLog {
    f32s: Vec<(BufF32, usize, f32)>,
    u32s: Vec<(BufU32, usize, u32)>,
    u64s: Vec<(BufU64, usize, u64)>,
}

impl WriteLog {
    fn replay(&self, pool: &mut BufferPool) {
        for &(buf, idx, v) in &self.f32s {
            pool.f32_mut(buf)[idx] = v;
        }
        for &(buf, idx, v) in &self.u32s {
            pool.u32_mut(buf)[idx] = v;
        }
        for &(buf, idx, v) in &self.u64s {
            pool.u64_mut(buf)[idx] = v;
        }
    }
}

impl<'a> ItemCtx<'a> {
    /// Charges `n` convention flops to this group.
    #[inline]
    pub fn flops(&mut self, n: u64) {
        self.cost.flops += n as f64;
    }

    /// Reads a word of LDS.
    #[inline]
    pub fn lds_read(&mut self, idx: usize) -> f32 {
        self.cost.lds_accesses += 1.0;
        if let Some(d) = self.race.as_deref_mut() {
            d.read(self.local_id, Space::Lds, idx);
        }
        self.lds[idx]
    }

    /// Writes a word of LDS.
    #[inline]
    pub fn lds_write(&mut self, idx: usize, v: f32) {
        self.cost.lds_accesses += 1.0;
        if let Some(d) = self.race.as_deref_mut() {
            d.write(self.local_id, Space::Lds, idx);
        }
        self.lds[idx] = v;
    }

    /// Writes `data.len()` consecutive LDS words (charged and race-tracked
    /// per word) — the staple of tile staging.
    #[inline]
    pub fn lds_write_slice(&mut self, base: usize, data: &[f32]) {
        self.cost.lds_accesses += data.len() as f64;
        if let Some(d) = self.race.as_deref_mut() {
            for i in base..base + data.len() {
                d.write(self.local_id, Space::Lds, i);
            }
        }
        self.lds[base..base + data.len()].copy_from_slice(data);
    }

    /// Reads `len` consecutive LDS words as a slice (charged and
    /// race-tracked per word). Charge happens up front, so the returned
    /// borrow can feed a tight inner loop.
    #[inline]
    pub fn lds_read_slice(&mut self, base: usize, len: usize) -> &[f32] {
        self.cost.lds_accesses += len as f64;
        if let Some(d) = self.race.as_deref_mut() {
            for i in base..base + len {
                d.read(self.local_id, Space::Lds, i);
            }
        }
        &self.lds[base..base + len]
    }

    /// Reads one `f32` with wavefront-coalesced addressing.
    #[inline]
    pub fn read_f32_coalesced(&mut self, buf: BufF32, idx: usize) -> f32 {
        self.cost.read_bytes += 4.0;
        self.cost.read_transactions += 4.0 * self.inv_transaction_bytes;
        if let Some(d) = self.race.as_deref_mut() {
            d.read(self.local_id, Space::GlobalF32(buf.raw()), idx);
        }
        self.pool.f32(buf)[idx]
    }

    /// Reads one `f32` with gather (uncoalesced) addressing.
    #[inline]
    pub fn read_f32(&mut self, buf: BufF32, idx: usize) -> f32 {
        self.cost.read_bytes += 4.0;
        self.cost.read_transactions += 1.0;
        if let Some(d) = self.race.as_deref_mut() {
            d.read(self.local_id, Space::GlobalF32(buf.raw()), idx);
        }
        self.pool.f32(buf)[idx]
    }

    /// Reads `COUNT` consecutive `f32` (a float2/float4 load), coalesced.
    #[inline]
    pub fn read_f32_vec_coalesced<const COUNT: usize>(
        &mut self,
        buf: BufF32,
        base: usize,
    ) -> [f32; COUNT] {
        self.cost.read_bytes += 4.0 * COUNT as f64;
        self.cost.read_transactions += 4.0 * COUNT as f64 * self.inv_transaction_bytes;
        if let Some(d) = self.race.as_deref_mut() {
            for i in base..base + COUNT {
                d.read(self.local_id, Space::GlobalF32(buf.raw()), i);
            }
        }
        let mut out = [0.0; COUNT];
        out.copy_from_slice(&self.pool.f32(buf)[base..base + COUNT]);
        out
    }

    /// Reads `COUNT` consecutive `f32` as a gather (one transaction, since
    /// consecutive words of one lane share a burst).
    #[inline]
    pub fn read_f32_vec<const COUNT: usize>(&mut self, buf: BufF32, base: usize) -> [f32; COUNT] {
        self.cost.read_bytes += 4.0 * COUNT as f64;
        self.cost.read_transactions += 1.0;
        if let Some(d) = self.race.as_deref_mut() {
            for i in base..base + COUNT {
                d.read(self.local_id, Space::GlobalF32(buf.raw()), i);
            }
        }
        let mut out = [0.0; COUNT];
        out.copy_from_slice(&self.pool.f32(buf)[base..base + COUNT]);
        out
    }

    /// Writes one `f32`, coalesced.
    #[inline]
    pub fn write_f32_coalesced(&mut self, buf: BufF32, idx: usize, v: f32) {
        self.cost.write_bytes += 4.0;
        self.cost.write_transactions += 4.0 * self.inv_transaction_bytes;
        if let Some(d) = self.race.as_deref_mut() {
            d.write(self.local_id, Space::GlobalF32(buf.raw()), idx);
        }
        if let Some(log) = self.log.as_deref_mut() {
            log.f32s.push((buf, idx, v));
        }
        self.pool.f32_mut(buf)[idx] = v;
    }

    /// Writes one `f32` as a scatter.
    #[inline]
    pub fn write_f32(&mut self, buf: BufF32, idx: usize, v: f32) {
        self.cost.write_bytes += 4.0;
        self.cost.write_transactions += 1.0;
        if let Some(d) = self.race.as_deref_mut() {
            d.write(self.local_id, Space::GlobalF32(buf.raw()), idx);
        }
        if let Some(log) = self.log.as_deref_mut() {
            log.f32s.push((buf, idx, v));
        }
        self.pool.f32_mut(buf)[idx] = v;
    }

    /// Writes `COUNT` consecutive `f32`, coalesced.
    #[inline]
    pub fn write_f32_vec_coalesced<const COUNT: usize>(
        &mut self,
        buf: BufF32,
        base: usize,
        v: [f32; COUNT],
    ) {
        self.cost.write_bytes += 4.0 * COUNT as f64;
        self.cost.write_transactions += 4.0 * COUNT as f64 * self.inv_transaction_bytes;
        if let Some(d) = self.race.as_deref_mut() {
            for i in base..base + COUNT {
                d.write(self.local_id, Space::GlobalF32(buf.raw()), i);
            }
        }
        if let Some(log) = self.log.as_deref_mut() {
            log.f32s.extend((0..COUNT).map(|k| (buf, base + k, v[k])));
        }
        self.pool.f32_mut(buf)[base..base + COUNT].copy_from_slice(&v);
    }

    /// Writes `COUNT` consecutive `f32` as a scatter (one transaction: one
    /// lane's consecutive words share a burst).
    #[inline]
    pub fn write_f32_vec<const COUNT: usize>(&mut self, buf: BufF32, base: usize, v: [f32; COUNT]) {
        self.cost.write_bytes += 4.0 * COUNT as f64;
        self.cost.write_transactions += 1.0;
        if let Some(d) = self.race.as_deref_mut() {
            for i in base..base + COUNT {
                d.write(self.local_id, Space::GlobalF32(buf.raw()), i);
            }
        }
        if let Some(log) = self.log.as_deref_mut() {
            log.f32s.extend((0..COUNT).map(|k| (buf, base + k, v[k])));
        }
        self.pool.f32_mut(buf)[base..base + COUNT].copy_from_slice(&v);
    }

    /// Reads one `u32`, coalesced.
    #[inline]
    pub fn read_u32_coalesced(&mut self, buf: BufU32, idx: usize) -> u32 {
        self.cost.read_bytes += 4.0;
        self.cost.read_transactions += 4.0 * self.inv_transaction_bytes;
        if let Some(d) = self.race.as_deref_mut() {
            d.read(self.local_id, Space::GlobalU32(buf.raw()), idx);
        }
        self.pool.u32(buf)[idx]
    }

    /// Writes one `u32`, coalesced.
    #[inline]
    pub fn write_u32_coalesced(&mut self, buf: BufU32, idx: usize, v: u32) {
        self.cost.write_bytes += 4.0;
        self.cost.write_transactions += 4.0 * self.inv_transaction_bytes;
        if let Some(d) = self.race.as_deref_mut() {
            d.write(self.local_id, Space::GlobalU32(buf.raw()), idx);
        }
        if let Some(log) = self.log.as_deref_mut() {
            log.u32s.push((buf, idx, v));
        }
        self.pool.u32_mut(buf)[idx] = v;
    }

    /// Reads one `u64` (a Morton key or f64 bit pattern), coalesced.
    #[inline]
    pub fn read_u64_coalesced(&mut self, buf: BufU64, idx: usize) -> u64 {
        self.cost.read_bytes += 8.0;
        self.cost.read_transactions += 8.0 * self.inv_transaction_bytes;
        if let Some(d) = self.race.as_deref_mut() {
            d.read(self.local_id, Space::GlobalU64(buf.raw()), idx);
        }
        self.pool.u64(buf)[idx]
    }

    /// Writes one `u64`, coalesced.
    #[inline]
    pub fn write_u64_coalesced(&mut self, buf: BufU64, idx: usize, v: u64) {
        self.cost.write_bytes += 8.0;
        self.cost.write_transactions += 8.0 * self.inv_transaction_bytes;
        if let Some(d) = self.race.as_deref_mut() {
            d.write(self.local_id, Space::GlobalU64(buf.raw()), idx);
        }
        if let Some(log) = self.log.as_deref_mut() {
            log.u64s.push((buf, idx, v));
        }
        self.pool.u64_mut(buf)[idx] = v;
    }

    /// Length of an `f32` buffer (free: lengths are kernel arguments on real
    /// devices).
    #[inline]
    pub fn len_f32(&self, buf: BufF32) -> usize {
        self.pool.len_f32(buf)
    }

    /// Length of a `u32` buffer (free, as with [`ItemCtx::len_f32`]).
    #[inline]
    pub fn len_u32(&self, buf: BufU32) -> usize {
        self.pool.len_u32(buf)
    }

    /// Length of a `u64` buffer (free, as with [`ItemCtx::len_f32`]).
    #[inline]
    pub fn len_u64(&self, buf: BufU64) -> usize {
        self.pool.len_u64(buf)
    }

    // --- Bulk accessors for hot inner loops -------------------------------
    //
    // The per-access methods above cost one counter update per element; a
    // tile loop evaluating hundreds of interactions per phase call wants a
    // tight slice loop instead. These accessors are *uncounted*: the kernel
    // must charge the equivalent events explicitly with `charge_*`. Misuse
    // shows up immediately in the cost-model tests, which compare charged
    // totals against analytic expectations.

    /// Uncounted, race-untracked read-only view of LDS. Pair with
    /// [`ItemCtx::charge_lds`]; prefer [`ItemCtx::lds_read_slice`], which is
    /// charged and visible to the race detector.
    #[inline]
    pub fn lds(&self) -> &[f32] {
        self.lds
    }

    /// Charges `words` LDS accesses without touching memory.
    #[inline]
    pub fn charge_lds(&mut self, words: f64) {
        self.cost.lds_accesses += words;
    }

    /// Charges `n` convention flops (alias of [`ItemCtx::flops`] taking
    /// fractional counts for amortized charging).
    #[inline]
    pub fn charge_flops(&mut self, n: f64) {
        self.cost.flops += n;
    }

    /// Charges a bulk global-memory read of `bytes` bytes in `transactions`
    /// memory transactions, without touching memory. Pair with the uncounted
    /// `global_*` views below; a coalesced stream of `b` bytes costs
    /// `b / transaction_bytes` transactions, a gather costs one per access.
    #[inline]
    pub fn charge_global_read(&mut self, bytes: f64, transactions: f64) {
        self.cost.read_bytes += bytes;
        self.cost.read_transactions += transactions;
    }

    /// Charges a bulk global-memory write, as [`ItemCtx::charge_global_read`].
    #[inline]
    pub fn charge_global_write(&mut self, bytes: f64, transactions: f64) {
        self.cost.write_bytes += bytes;
        self.cost.write_transactions += transactions;
    }

    /// Transaction granularity helper: transactions for a coalesced stream of
    /// `bytes` bytes on this device.
    #[inline]
    pub fn coalesced_transactions(&self, bytes: f64) -> f64 {
        bytes * self.inv_transaction_bytes
    }

    /// Uncounted, race-untracked read-only view of a global `u32` buffer.
    /// Pair with [`ItemCtx::charge_global_read`].
    #[inline]
    pub fn global_u32(&self, buf: BufU32) -> &[u32] {
        self.pool.u32(buf)
    }

    /// Uncounted, race-untracked read-only view of a global `u64` buffer.
    /// Pair with [`ItemCtx::charge_global_read`].
    #[inline]
    pub fn global_u64(&self, buf: BufU64) -> &[u64] {
        self.pool.u64(buf)
    }

    /// Uncounted bulk store of `src` into a global `f32` buffer at `offset`.
    /// Pair with [`ItemCtx::charge_global_write`]. Writes are logged so the
    /// parallel executor replays them deterministically, but they are not
    /// visible to the race detector.
    #[inline]
    pub fn store_f32_slice(&mut self, buf: BufF32, offset: usize, src: &[f32]) {
        if let Some(log) = self.log.as_deref_mut() {
            for (i, &v) in src.iter().enumerate() {
                log.f32s.push((buf, offset + i, v));
            }
        }
        self.pool.f32_mut(buf)[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Uncounted bulk store into a global `u32` buffer, as
    /// [`ItemCtx::store_f32_slice`].
    #[inline]
    pub fn store_u32_slice(&mut self, buf: BufU32, offset: usize, src: &[u32]) {
        if let Some(log) = self.log.as_deref_mut() {
            for (i, &v) in src.iter().enumerate() {
                log.u32s.push((buf, offset + i, v));
            }
        }
        self.pool.u32_mut(buf)[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Uncounted bulk store into a global `u64` buffer, as
    /// [`ItemCtx::store_f32_slice`].
    #[inline]
    pub fn store_u64_slice(&mut self, buf: BufU64, offset: usize, src: &[u64]) {
        if let Some(log) = self.log.as_deref_mut() {
            for (i, &v) in src.iter().enumerate() {
                log.u64s.push((buf, offset + i, v));
            }
        }
        self.pool.u64_mut(buf)[offset..offset + src.len()].copy_from_slice(src);
    }
}

/// The device-side view of a whole work-group during one phase, handed to
/// [`Kernel::phase_group`].
///
/// A phase normally runs item by item through [`GroupCtx::for_each_item`],
/// which builds each item's [`ItemCtx`] in local-id order. A kernel whose
/// items all consume the same LDS tile can instead read the tile once
/// ([`GroupCtx::lds`]) and evaluate its items as SIMD lanes, charging them
/// with [`GroupCtx::charge_items_lds_read`]; a phase that only moves one
/// float4 per item runs as one of the group-level memory primitives below.
/// These helpers add each item's charges in local-id order and record each
/// item's accesses with the race detector in the same order, so the group's
/// cost sums and race report are identical to the item-by-item run.
pub struct GroupCtx<'a> {
    /// Work-group index.
    pub group_id: usize,
    /// Items per group.
    pub local_size: usize,
    /// Total items in the launch.
    pub global_size: usize,
    lds: &'a mut [f32],
    pool: &'a mut BufferPool,
    cost: &'a mut GroupCost,
    inv_transaction_bytes: f64,
    race: Option<&'a mut RaceDetector>,
    log: Option<&'a mut WriteLog>,
}

impl GroupCtx<'_> {
    /// The [`ItemCtx`] of the item at `local_id`.
    #[inline]
    pub fn item(&mut self, local_id: usize) -> ItemCtx<'_> {
        ItemCtx {
            global_id: self.group_id * self.local_size + local_id,
            local_id,
            group_id: self.group_id,
            local_size: self.local_size,
            global_size: self.global_size,
            lds: self.lds,
            pool: self.pool,
            cost: self.cost,
            inv_transaction_bytes: self.inv_transaction_bytes,
            race: self.race.as_deref_mut(),
            log: self.log.as_deref_mut(),
        }
    }

    /// Runs `f` for every item in local-id order, each with its own
    /// [`ItemCtx`] and registers: the item-by-item phase.
    #[inline]
    pub fn for_each_item<R>(
        &mut self,
        items: &mut [R],
        mut f: impl FnMut(&mut ItemCtx<'_>, &mut R),
    ) {
        for (local_id, regs) in items.iter_mut().enumerate() {
            f(&mut self.item(local_id), regs);
        }
    }

    /// Uncounted, race-untracked shared view of the group's LDS. Pair with
    /// [`GroupCtx::charge_items_lds_read`].
    #[inline]
    pub fn lds(&self) -> &[f32] {
        self.lds
    }

    /// Charges, for every item in local-id order, `flops` convention flops
    /// and a read of the LDS words `base..base + len`, and records that
    /// item's reads with the race detector: exactly what each item's
    /// `charge_flops(flops)` then `lds_read_slice(base, len)` would do.
    pub fn charge_items_lds_read(&mut self, flops: f64, base: usize, len: usize) {
        assert!(base + len <= self.lds.len(), "LDS read {base}..{} out of bounds", base + len);
        for local_id in 0..self.local_size {
            self.cost.flops += flops;
            self.cost.lds_accesses += len as f64;
            if let Some(d) = self.race.as_deref_mut() {
                for i in base..base + len {
                    d.read(local_id, Space::Lds, i);
                }
            }
        }
    }

    // --- Group-level float4 memory phases ---------------------------------
    //
    // Each primitive below is a whole phase's worth of one per-item access:
    // it adds every item's charges in local-id order with the increments of
    // the `ItemCtx` call it stands for, records that item's accesses with the
    // race detector in the same order, and logs writes in the same order, so
    // memory, `GroupCost` bits and race reports equal the item-by-item run.
    // The data itself moves in bulk. `items` always starts at local id 0.

    /// Items `0..count` each load the float4 `first + local_id` of `buf`
    /// (coalesced) into LDS words `4 * local_id..`: the tile-staging phase.
    /// Each item is charged as by `read_f32_vec_coalesced::<4>` then
    /// `lds_write_slice` of the four words.
    pub fn stage_tile_f32x4(&mut self, buf: BufF32, first: usize, count: usize) {
        let src = &self.pool.f32(buf)[4 * first..4 * (first + count)];
        let transactions = 4.0 * 4.0 * self.inv_transaction_bytes;
        for local_id in 0..count {
            self.cost.read_bytes += 16.0;
            self.cost.read_transactions += transactions;
            self.cost.lds_accesses += 4.0;
            let global = 4 * (first + local_id);
            record(&mut self.race, local_id, Space::GlobalF32(buf.raw()), global, 4, false);
            record(&mut self.race, local_id, Space::Lds, 4 * local_id, 4, true);
        }
        self.lds[..src.len()].copy_from_slice(src);
    }

    /// Item `k` reads the float4 `first + k` of `buf` (coalesced) and hands
    /// it to `f` with its registers. Each item is charged as by
    /// `read_f32_vec_coalesced::<4>`.
    pub fn read_f32x4_rows<R>(
        &mut self,
        buf: BufF32,
        first: usize,
        items: &mut [R],
        mut f: impl FnMut(&mut R, [f32; 4]),
    ) {
        let (rows, _) = self.pool.f32(buf)[4 * first..4 * (first + items.len())].as_chunks::<4>();
        let transactions = 4.0 * 4.0 * self.inv_transaction_bytes;
        for (local_id, (regs, &v)) in items.iter_mut().zip(rows).enumerate() {
            self.cost.read_bytes += 16.0;
            self.cost.read_transactions += transactions;
            let global = 4 * (first + local_id);
            record(&mut self.race, local_id, Space::GlobalF32(buf.raw()), global, 4, false);
            f(regs, v);
        }
    }

    /// Item `k` reads the index word `index[first + k]` (coalesced) and,
    /// unless it is `skip`, gathers the float4 at that index of `buf`; `f`
    /// gets the item's registers, its index word and the float4 (`None` when
    /// skipped). Each item is charged as by `read_u32_coalesced` then, when
    /// it gathers, `read_f32_vec::<4>`.
    pub fn gather_f32x4_indexed<R>(
        &mut self,
        buf: BufF32,
        index: BufU32,
        first: usize,
        skip: u32,
        items: &mut [R],
        mut f: impl FnMut(&mut R, u32, Option<[f32; 4]>),
    ) {
        let words = &self.pool.u32(index)[first..first + items.len()];
        let data = self.pool.f32(buf);
        let index_transactions = 4.0 * self.inv_transaction_bytes;
        let index_space = Space::GlobalU32(index.raw());
        for (local_id, (regs, &at)) in items.iter_mut().zip(words).enumerate() {
            self.cost.read_bytes += 4.0;
            self.cost.read_transactions += index_transactions;
            record(&mut self.race, local_id, index_space, first + local_id, 1, false);
            let v = if at == skip {
                None
            } else {
                let base = 4 * at as usize;
                self.cost.read_bytes += 16.0;
                self.cost.read_transactions += 1.0;
                record(&mut self.race, local_id, Space::GlobalF32(buf.raw()), base, 4, false);
                let mut v = [0.0; 4];
                v.copy_from_slice(&data[base..base + 4]);
                Some(v)
            };
            f(regs, at, v);
        }
    }

    /// Item `k` writes `f(&items[k])` to the float4 `first + k` of `buf`
    /// (coalesced). Each item is charged as by
    /// `write_f32_vec_coalesced::<4>`.
    pub fn write_f32x4_rows<R>(
        &mut self,
        buf: BufF32,
        first: usize,
        items: &[R],
        f: impl Fn(&R) -> [f32; 4],
    ) {
        let transactions = 4.0 * 4.0 * self.inv_transaction_bytes;
        let (rows, _) =
            self.pool.f32_mut(buf)[4 * first..4 * (first + items.len())].as_chunks_mut::<4>();
        for (local_id, (regs, row)) in items.iter().zip(rows).enumerate() {
            let v = f(regs);
            let global = 4 * (first + local_id);
            self.cost.write_bytes += 16.0;
            self.cost.write_transactions += transactions;
            record(&mut self.race, local_id, Space::GlobalF32(buf.raw()), global, 4, true);
            if let Some(log) = self.log.as_deref_mut() {
                log.f32s.extend((0..4).map(|k| (buf, global + k, v[k])));
            }
            *row = v;
        }
    }

    /// Every item for which `f` gives `Some((at, v))` writes `v` to the
    /// float4 `at` of `buf` as a scatter. Each writing item is charged as by
    /// `write_f32_vec::<4>`.
    pub fn scatter_f32x4<R>(
        &mut self,
        buf: BufF32,
        items: &[R],
        f: impl Fn(&R) -> Option<(usize, [f32; 4])>,
    ) {
        let data = self.pool.f32_mut(buf);
        for (local_id, regs) in items.iter().enumerate() {
            let Some((at, v)) = f(regs) else { continue };
            let global = 4 * at;
            self.cost.write_bytes += 16.0;
            self.cost.write_transactions += 1.0;
            record(&mut self.race, local_id, Space::GlobalF32(buf.raw()), global, 4, true);
            if let Some(log) = self.log.as_deref_mut() {
                log.f32s.extend((0..4).map(|k| (buf, global + k, v[k])));
            }
            data[global..global + 4].copy_from_slice(&v);
        }
    }
}

/// Records item `local_id`'s access of the `len` words from `base` of
/// `space` with the race detector, if there is one.
fn record(
    race: &mut Option<&mut RaceDetector>,
    local_id: usize,
    space: Space,
    base: usize,
    len: usize,
    write: bool,
) {
    if let Some(d) = race.as_deref_mut() {
        for i in base..base + len {
            if write {
                d.write(local_id, space, i);
            } else {
                d.read(local_id, space, i);
            }
        }
    }
}

/// Aggregated cost of one phase index within one group, recorded only when
/// phase profiling is on (see [`execute_launch`]). A phase inside a
/// `Jump` loop executes many times; `executions` counts them and `cost` sums
/// their charges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseCost {
    /// Phase index in the kernel's phase machine.
    pub phase: usize,
    /// Times this phase executed in the group.
    pub executions: u64,
    /// Events charged across all executions (includes the implicit barrier
    /// after each execution).
    pub cost: GroupCost,
}

/// Result of functionally executing a full launch: one cost per group, in
/// group order.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Per-group event counts.
    pub group_costs: Vec<GroupCost>,
    /// Phases executed per group (same order).
    pub group_phases: Vec<u64>,
    /// Per-group phase breakdowns, ordered by phase index within each group.
    /// Empty unless the launch was profiled.
    pub phase_costs: Vec<Vec<PhaseCost>>,
}

impl ExecOutcome {
    /// Sum of all group costs.
    pub fn total(&self) -> GroupCost {
        self.group_costs.iter().copied().sum()
    }
}

/// Functionally executes every work-group of `grid` and records costs.
///
/// With `check_races`, every tracked access is checked against the rule that
/// no two work-items may touch the same word between barriers unless all
/// accesses are reads; the detected races (capped at 64) come back beside
/// the outcome. With `profile`, the outcome
/// also carries a per-group, per-phase cost breakdown in
/// [`ExecOutcome::phase_costs`] (what the execution-trace subsystem
/// consumes). Neither switch changes memory, group costs or phase counts.
///
/// # Panics
/// Panics if the grid is invalid, the local size exceeds the device limit,
/// the kernel's LDS request exceeds the device LDS, or a group exceeds the
/// phase budget (runaway loop).
pub fn execute_launch<K: Kernel>(
    kernel: &K,
    grid: NdRange,
    spec: &DeviceSpec,
    pool: &mut BufferPool,
    check_races: bool,
    profile: bool,
) -> (ExecOutcome, Vec<Race>) {
    grid.validate().unwrap_or_else(|e| panic!("kernel `{}`: {e}", kernel.name()));
    assert!(
        grid.local <= spec.max_workgroup_size as usize,
        "kernel `{}`: local size {} exceeds device max {}",
        kernel.name(),
        grid.local,
        spec.max_workgroup_size
    );
    assert!(
        kernel.lds_words() <= spec.lds_words_per_cu as usize,
        "kernel `{}`: LDS request {} words exceeds device LDS {} words",
        kernel.name(),
        kernel.lds_words(),
        spec.lds_words_per_cu
    );

    let num_groups = grid.num_groups();
    let inv_tb = 1.0 / f64::from(spec.transaction_bytes);

    // Race checking keeps the serial schedule: the detector's value is its
    // byte-stable report, and checked launches are cold paths anyway.
    if par::threads() == 1 || num_groups < 2 || check_races {
        let mut detector = check_races.then(|| RaceDetector::new(64));
        let batch =
            run_groups(kernel, grid, pool, 0..num_groups, inv_tb, profile, detector.as_mut(), None);
        let races = detector.map(|d| d.races().to_vec()).unwrap_or_default();
        let GroupBatch { group_costs, group_phases, phase_costs } = batch;
        return (ExecOutcome { group_costs, group_phases, phase_costs }, races);
    }

    // Parallel schedule: contiguous chunks of groups execute on worker
    // threads, each against a private clone of global memory, logging its
    // writes. Replaying the logs in chunk order reproduces the serial
    // schedule's final memory byte-for-byte.
    let chunks = {
        let pool_ref: &BufferPool = pool;
        par::map_chunks(num_groups, |range| {
            let mut local_pool = pool_ref.clone();
            let mut log = WriteLog::default();
            let batch = run_groups(
                kernel,
                grid,
                &mut local_pool,
                range,
                inv_tb,
                profile,
                None,
                Some(&mut log),
            );
            (batch, log)
        })
    };

    let mut group_costs = Vec::with_capacity(num_groups);
    let mut group_phases = Vec::with_capacity(num_groups);
    let mut phase_costs: Vec<Vec<PhaseCost>> =
        if profile { Vec::with_capacity(num_groups) } else { Vec::new() };
    for (batch, log) in chunks {
        log.replay(pool);
        group_costs.extend(batch.group_costs);
        group_phases.extend(batch.group_phases);
        phase_costs.extend(batch.phase_costs);
    }
    (ExecOutcome { group_costs, group_phases, phase_costs }, Vec::new())
}

/// Per-chunk slice of an [`ExecOutcome`], in group order within the chunk.
struct GroupBatch {
    group_costs: Vec<GroupCost>,
    group_phases: Vec<u64>,
    phase_costs: Vec<Vec<PhaseCost>>,
}

/// Executes the contiguous `groups` range of the launch against `pool`.
#[allow(clippy::too_many_arguments)]
fn run_groups<K: Kernel>(
    kernel: &K,
    grid: NdRange,
    pool: &mut BufferPool,
    groups: std::ops::Range<usize>,
    inv_tb: f64,
    profile: bool,
    mut detector: Option<&mut RaceDetector>,
    mut log: Option<&mut WriteLog>,
) -> GroupBatch {
    let num_groups = grid.num_groups();
    let mut group_costs = Vec::with_capacity(groups.len());
    let mut group_phases = Vec::with_capacity(groups.len());
    let mut phase_costs: Vec<Vec<PhaseCost>> =
        if profile { Vec::with_capacity(groups.len()) } else { Vec::new() };
    let mut lds = vec![0.0_f32; kernel.lds_words()];

    for group_id in groups {
        lds.iter_mut().for_each(|w| *w = 0.0);
        let mut cost = GroupCost { items: grid.local as u64, ..Default::default() };
        let mut group_regs = K::GroupRegs::default();
        let mut item_regs = vec![K::ItemRegs::default(); grid.local];
        let info =
            GroupInfo { group_id, local_size: grid.local, global_size: grid.global, num_groups };

        let mut phase = 0_usize;
        let mut executed = 0_u64;
        let mut profile_acc: Vec<PhaseCost> = Vec::new();
        loop {
            if let Some(d) = detector.as_deref_mut() {
                d.begin_phase(group_id, phase);
            }
            let cost_before = profile.then_some(cost);
            let mut ctx = GroupCtx {
                group_id,
                local_size: grid.local,
                global_size: grid.global,
                lds: &mut lds,
                pool,
                cost: &mut cost,
                inv_transaction_bytes: inv_tb,
                race: detector.as_deref_mut(),
                log: log.as_deref_mut(),
            };
            kernel.phase_group(phase, &mut ctx, &mut item_regs, &group_regs);
            cost.barriers += 1;
            executed += 1;
            if let Some(before) = cost_before {
                let delta = cost - before;
                match profile_acc.iter_mut().find(|pc| pc.phase == phase) {
                    Some(pc) => {
                        pc.executions += 1;
                        pc.cost += delta;
                    }
                    None => profile_acc.push(PhaseCost { phase, executions: 1, cost: delta }),
                }
            }
            assert!(
                (executed as usize) < MAX_PHASES_PER_GROUP,
                "kernel `{}` group {group_id}: phase budget exhausted (runaway loop?)",
                kernel.name()
            );
            match kernel.control(phase, &mut group_regs, &info) {
                Control::Next => phase += 1,
                Control::Jump(p) => phase = p,
                Control::Done => break,
            }
        }
        group_costs.push(cost);
        group_phases.push(executed);
        if profile {
            profile_acc.sort_by_key(|pc| pc.phase);
            phase_costs.push(profile_acc);
        }
    }

    GroupBatch { group_costs, group_phases, phase_costs }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles every element: out[i] = 2 * in[i]. Single phase.
    struct DoubleKernel {
        input: BufF32,
        output: BufF32,
        n: usize,
    }

    impl Kernel for DoubleKernel {
        type ItemRegs = ();
        type GroupRegs = ();

        fn name(&self) -> &str {
            "double"
        }

        fn lds_words(&self) -> usize {
            0
        }

        fn phase(&self, _phase: usize, ctx: &mut ItemCtx<'_>, _regs: &mut (), _group: &()) {
            let i = ctx.global_id;
            if i < self.n {
                let v = ctx.read_f32_coalesced(self.input, i);
                ctx.flops(1);
                ctx.write_f32_coalesced(self.output, i, 2.0 * v);
            }
        }

        fn control(&self, _phase: usize, _group: &mut (), _info: &GroupInfo) -> Control {
            Control::Done
        }
    }

    /// Group-wide LDS reduction over `rounds` tiles, exercising Jump loops:
    /// each item writes its id to LDS, then item 0 sums the tile.
    struct LoopKernel {
        output: BufF32,
        rounds: usize,
    }

    #[derive(Default)]
    struct LoopGroupRegs {
        round: usize,
    }

    impl Kernel for LoopKernel {
        type ItemRegs = ();
        type GroupRegs = LoopGroupRegs;

        fn name(&self) -> &str {
            "loop"
        }

        fn lds_words(&self) -> usize {
            8
        }

        fn phase(
            &self,
            phase: usize,
            ctx: &mut ItemCtx<'_>,
            _regs: &mut (),
            group: &LoopGroupRegs,
        ) {
            match phase {
                0 => ctx.lds_write(ctx.local_id, (group.round + 1) as f32),
                1 => {
                    if ctx.local_id == 0 {
                        let mut sum = 0.0;
                        for k in 0..ctx.local_size {
                            sum += ctx.lds_read(k);
                        }
                        let prev = ctx.read_f32(self.output, ctx.group_id);
                        ctx.write_f32(self.output, ctx.group_id, prev + sum);
                    }
                }
                _ => unreachable!("loop kernel has two phases"),
            }
        }

        fn control(&self, phase: usize, group: &mut LoopGroupRegs, _info: &GroupInfo) -> Control {
            match phase {
                0 => Control::Next,
                1 => {
                    group.round += 1;
                    if group.round < self.rounds {
                        Control::Jump(0)
                    } else {
                        Control::Done
                    }
                }
                _ => Control::Done,
            }
        }
    }

    fn spec() -> DeviceSpec {
        DeviceSpec::tiny_test_device()
    }

    #[test]
    fn functional_correctness_simple() {
        let spec = spec();
        let mut pool = BufferPool::new();
        let input = pool.alloc_f32(10);
        let output = pool.alloc_f32(10);
        for i in 0..10 {
            pool.f32_mut(input)[i] = i as f32;
        }
        let k = DoubleKernel { input, output, n: 10 };
        let grid = NdRange::round_up(10, 4);
        let out = execute_launch(&k, grid, &spec, &mut pool, false, false).0;
        for i in 0..10 {
            assert_eq!(pool.f32(output)[i], 2.0 * i as f32);
        }
        assert_eq!(out.group_costs.len(), 3); // ceil(10/4) groups
    }

    #[test]
    fn cost_accounting_simple() {
        let spec = spec();
        let mut pool = BufferPool::new();
        let input = pool.alloc_f32(8);
        let output = pool.alloc_f32(8);
        let k = DoubleKernel { input, output, n: 8 };
        let out =
            execute_launch(&k, NdRange { global: 8, local: 4 }, &spec, &mut pool, false, false).0;
        let total = out.total();
        assert_eq!(total.flops, 8.0);
        assert_eq!(total.read_bytes, 32.0);
        assert_eq!(total.write_bytes, 32.0);
        // coalesced: 4 bytes / 64-byte transaction each
        assert!((total.read_transactions - 32.0 / 64.0).abs() < 1e-12);
        assert_eq!(total.barriers, 2); // one phase per group, 2 groups
        assert_eq!(total.items, 8);
    }

    #[test]
    fn tail_items_guarded_by_kernel() {
        let spec = spec();
        let mut pool = BufferPool::new();
        let input = pool.alloc_f32(5);
        let output = pool.alloc_f32(5);
        let k = DoubleKernel { input, output, n: 5 };
        // rounded up to 8 items; items 5..8 must not touch the buffers
        let grid = NdRange::round_up(5, 4);
        assert_eq!(grid.global, 8);
        let out = execute_launch(&k, grid, &spec, &mut pool, false, false).0;
        assert_eq!(out.total().flops, 5.0);
    }

    #[test]
    fn jump_loops_and_lds() {
        let spec = spec();
        let mut pool = BufferPool::new();
        let output = pool.alloc_f32(2);
        let k = LoopKernel { output, rounds: 3 };
        let out =
            execute_launch(&k, NdRange { global: 8, local: 4 }, &spec, &mut pool, false, false).0;
        // each round: 4 items write round+1 -> sum = 4*(round+1); 3 rounds: 4*(1+2+3)=24
        assert_eq!(pool.f32(output), &[24.0, 24.0]);
        // each group executed 2 phases × 3 rounds = 6 barriers
        assert_eq!(out.group_costs[0].barriers, 6);
        assert_eq!(out.group_phases[0], 6);
        // LDS traffic: per round 4 writes + 4 reads = 8, ×3 rounds
        assert_eq!(out.group_costs[0].lds_accesses, 24.0);
    }

    #[test]
    fn lds_cleared_between_groups() {
        // LoopKernel sums whatever is in LDS; if LDS leaked across groups the
        // second group's output would differ.
        let spec = spec();
        let mut pool = BufferPool::new();
        let output = pool.alloc_f32(2);
        let k = LoopKernel { output, rounds: 1 };
        execute_launch(&k, NdRange { global: 8, local: 4 }, &spec, &mut pool, false, false);
        assert_eq!(pool.f32(output)[0], pool.f32(output)[1]);
    }

    #[test]
    #[should_panic(expected = "local size")]
    fn oversized_group_rejected() {
        let spec = spec();
        let mut pool = BufferPool::new();
        let input = pool.alloc_f32(1);
        let output = pool.alloc_f32(1);
        let k = DoubleKernel { input, output, n: 1 };
        execute_launch(&k, NdRange { global: 32, local: 16 }, &spec, &mut pool, false, false);
    }

    #[test]
    #[should_panic(expected = "LDS request")]
    fn oversized_lds_rejected() {
        struct Greedy;
        impl Kernel for Greedy {
            type ItemRegs = ();
            type GroupRegs = ();
            fn name(&self) -> &str {
                "greedy"
            }
            fn lds_words(&self) -> usize {
                1 << 20
            }
            fn phase(&self, _: usize, _: &mut ItemCtx<'_>, _: &mut (), _: &()) {}
            fn control(&self, _: usize, _: &mut (), _: &GroupInfo) -> Control {
                Control::Done
            }
        }
        let spec = spec();
        let mut pool = BufferPool::new();
        execute_launch(&Greedy, NdRange { global: 4, local: 4 }, &spec, &mut pool, false, false);
    }

    #[test]
    fn parallel_chunks_match_serial_bitexactly() {
        // Run the same launches under several thread counts; outputs and
        // per-group costs must be identical, including the Jump-loop kernel
        // whose groups re-read their own prior writes.
        let spec = spec();
        let capture = |threads: usize| {
            par::set_threads(threads);
            let mut pool = BufferPool::new();
            let input = pool.alloc_f32(64);
            let output = pool.alloc_f32(64);
            for i in 0..64 {
                pool.f32_mut(input)[i] = (i as f32).sin();
            }
            let d = DoubleKernel { input, output, n: 64 };
            let out_d = execute_launch(
                &d,
                NdRange { global: 64, local: 4 },
                &spec,
                &mut pool,
                false,
                false,
            )
            .0;
            let loop_out = pool.alloc_f32(16);
            let l = LoopKernel { output: loop_out, rounds: 3 };
            let out_l = execute_launch(
                &l,
                NdRange { global: 64, local: 4 },
                &spec,
                &mut pool,
                false,
                false,
            )
            .0;
            (
                pool.f32(output).to_vec(),
                pool.f32(loop_out).to_vec(),
                out_d.group_costs,
                out_l.group_costs,
                out_l.group_phases,
            )
        };
        let serial = capture(1);
        for threads in [2, 3, 8] {
            assert_eq!(capture(threads), serial, "threads={threads} diverged from serial");
        }
        par::set_threads(1);
    }

    /// Exercises every group-level float4 primitive, one per phase, or the
    /// item-by-item code each one stands for (`group: false`). `racy` makes
    /// item 0 touch a word of item 1 in every primitive phase, just before
    /// the access, so the race reports are not empty.
    struct PrimKernel {
        rows: BufF32,
        index: BufU32,
        out: BufF32,
        scattered: BufF32,
        group: bool,
        racy: bool,
    }

    #[derive(Debug, Clone, Copy, Default)]
    struct PrimRegs {
        a: [f32; 4],
        b: [f32; 4],
        at: u32,
    }

    /// Index words equal to this are skipped by the gather and the scatter.
    const SKIP: u32 = u32::MAX;

    impl PrimKernel {
        /// Tile length staged in phase 2: ragged, never the whole group.
        fn tile(local: usize) -> usize {
            local.div_ceil(2)
        }

        /// Items of a group that write phase 4's coalesced rows.
        fn live(group_id: usize, local: usize) -> usize {
            if group_id == 1 {
                local / 2
            } else {
                local
            }
        }

        fn sum(r: &PrimRegs) -> [f32; 4] {
            std::array::from_fn(|k| r.a[k] + r.b[k])
        }
    }

    impl Kernel for PrimKernel {
        type ItemRegs = PrimRegs;
        type GroupRegs = ();

        fn name(&self) -> &str {
            "primitives"
        }

        fn lds_words(&self) -> usize {
            4 * 64
        }

        fn phase(&self, phase: usize, ctx: &mut ItemCtx<'_>, regs: &mut PrimRegs, _: &()) {
            let first = ctx.group_id * ctx.local_size;
            let racy = self.racy && ctx.local_id == 0 && ctx.local_size > 1;
            match phase {
                0 => {
                    if racy {
                        ctx.write_f32(self.rows, 4 * (first + 1), 0.5);
                    }
                    regs.a = ctx.read_f32_vec_coalesced::<4>(self.rows, 4 * ctx.global_id);
                }
                1 => {
                    if racy {
                        ctx.write_u32_coalesced(self.index, first + 1, 2);
                    }
                    regs.at = ctx.read_u32_coalesced(self.index, ctx.global_id);
                    if regs.at != SKIP {
                        regs.b = ctx.read_f32_vec::<4>(self.rows, 4 * regs.at as usize);
                    }
                }
                2 => {
                    if racy {
                        ctx.lds_write(4, -1.0);
                    }
                    if ctx.local_id < Self::tile(ctx.local_size) {
                        let v = ctx.read_f32_vec_coalesced::<4>(self.rows, 4 * (3 + ctx.local_id));
                        ctx.lds_write_slice(4 * ctx.local_id, &v);
                    }
                }
                3 => {
                    // item form in both variants: reads back the staged tile
                    let tile = Self::tile(ctx.local_size);
                    let w = ctx.lds_read_slice(4 * (ctx.local_id * 7 % tile), 4).to_vec();
                    regs.a = std::array::from_fn(|k| regs.a[k] + w[k]);
                }
                4 => {
                    if racy {
                        ctx.write_f32(self.out, 4 * (first + 1), 0.25);
                    }
                    if ctx.local_id < Self::live(ctx.group_id, ctx.local_size) {
                        ctx.write_f32_vec_coalesced::<4>(
                            self.out,
                            4 * ctx.global_id,
                            Self::sum(regs),
                        );
                    }
                }
                _ => {
                    // phase 1's racy write sent item 1's scatter to float4 2
                    if racy {
                        let _ = ctx.read_f32(self.scattered, 8);
                    }
                    if regs.at != SKIP {
                        ctx.write_f32_vec::<4>(self.scattered, 4 * regs.at as usize, regs.b);
                    }
                }
            }
        }

        fn phase_group(
            &self,
            phase: usize,
            ctx: &mut GroupCtx<'_>,
            items: &mut [PrimRegs],
            _: &(),
        ) {
            if !self.group || phase == 3 {
                ctx.for_each_item(items, |item, regs| self.phase(phase, item, regs, &()));
                return;
            }
            let (local, first) = (ctx.local_size, ctx.group_id * ctx.local_size);
            if self.racy && local > 1 {
                let mut item0 = ctx.item(0);
                match phase {
                    0 => item0.write_f32(self.rows, 4 * (first + 1), 0.5),
                    1 => item0.write_u32_coalesced(self.index, first + 1, 2),
                    2 => item0.lds_write(4, -1.0),
                    4 => item0.write_f32(self.out, 4 * (first + 1), 0.25),
                    _ => {
                        let _ = item0.read_f32(self.scattered, 8);
                    }
                }
            }
            match phase {
                0 => ctx.read_f32x4_rows(self.rows, first, items, |r, v| r.a = v),
                1 => ctx.gather_f32x4_indexed(
                    self.rows,
                    self.index,
                    first,
                    SKIP,
                    items,
                    |r, at, v| {
                        r.at = at;
                        if let Some(v) = v {
                            r.b = v;
                        }
                    },
                ),
                2 => ctx.stage_tile_f32x4(self.rows, 3, Self::tile(local)),
                4 => {
                    let live = Self::live(ctx.group_id, local);
                    ctx.write_f32x4_rows(self.out, first, &items[..live], Self::sum);
                }
                _ => ctx.scatter_f32x4(self.scattered, items, |r| {
                    (r.at != SKIP).then_some((r.at as usize, r.b))
                }),
            }
        }

        fn control(&self, phase: usize, _: &mut (), _: &GroupInfo) -> Control {
            if phase < 5 {
                Control::Next
            } else {
                Control::Done
            }
        }
    }

    /// Buffer bits, per-group cost bits and race reports of one launch.
    fn run_primitives(local: usize, group: bool, racy: bool, checked: bool) -> Vec<String> {
        // 96-byte transactions: a coalesced word charges a fraction with no
        // exact binary form, so the charge order shows in the sums' bits
        let spec = DeviceSpec {
            max_workgroup_size: 64,
            transaction_bytes: 96,
            ..DeviceSpec::tiny_test_device()
        };
        let items = 3 * local;
        let mut pool = BufferPool::new();
        let rows = pool.alloc_f32(4 * (items + 3));
        let index = pool.alloc_u32(items);
        let out = pool.alloc_f32(4 * items);
        let scattered = pool.alloc_f32(4 * items);
        for (w, v) in pool.f32_mut(rows).iter_mut().enumerate() {
            *v = ((w * 37 % 101) as f32 - 50.0) / 7.0;
        }
        for (k, at) in pool.u32_mut(index).iter_mut().enumerate() {
            // a permutation of the items, every fourth one skipped
            *at = if k % 4 == 3 { SKIP } else { ((k * 5 + 2) % items) as u32 };
        }
        let kernel = PrimKernel { rows, index, out, scattered, group, racy };
        let grid = NdRange { global: items, local };
        // profiled, so each phase's own charges are compared too: a sum
        // taken in another order can round back to the same group total
        let (outcome, races) = execute_launch(&kernel, grid, &spec, &mut pool, checked, true);
        let f32_bits = |b| pool.f32(b).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let bits = [rows, out, scattered].map(|b| format!("{:?}", f32_bits(b)));
        let cost_bits = |c: &GroupCost| {
            let fields = [
                c.flops,
                c.lds_accesses,
                c.read_bytes,
                c.write_bytes,
                c.read_transactions,
                c.write_transactions,
            ];
            format!("{:?} {} {}", fields.map(f64::to_bits), c.barriers, c.items)
        };
        let phases = outcome.phase_costs.iter().flatten().map(|pc| cost_bits(&pc.cost));
        bits.into_iter()
            .chain([format!("{:?}", pool.u32(index))])
            .chain(outcome.group_costs.iter().map(cost_bits))
            .chain(phases)
            .chain(races.iter().map(ToString::to_string))
            .collect()
    }

    #[test]
    fn group_primitives_equal_their_item_form() {
        for local in [1, 3, 8, 64] {
            for checked in [false, true] {
                let items = run_primitives(local, false, false, checked);
                let group = run_primitives(local, true, false, checked);
                assert_eq!(group, items, "local {local}, checked {checked}");
            }
            let items = run_primitives(local, false, true, true);
            let group = run_primitives(local, true, true, true);
            if local > 1 {
                for phase in [0, 1, 2, 4, 5] {
                    let tag = format!("phase {phase}: item");
                    assert!(items.iter().any(|l| l.contains(&tag)), "local {local}: {tag} no race");
                }
            }
            assert_eq!(group, items, "local {local}: racy race reports");
        }
    }

    #[test]
    fn group_primitives_replay_their_writes_across_threads() {
        let serial = run_primitives(8, false, false, false);
        par::set_threads(2);
        let items = run_primitives(8, false, false, false);
        let group = run_primitives(8, true, false, false);
        par::set_threads(1);
        assert_eq!(items, serial);
        assert_eq!(group, serial);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn invalid_grid_rejected() {
        let spec = spec();
        let mut pool = BufferPool::new();
        let input = pool.alloc_f32(1);
        let output = pool.alloc_f32(1);
        let k = DoubleKernel { input, output, n: 1 };
        execute_launch(&k, NdRange { global: 5, local: 4 }, &spec, &mut pool, false, false);
    }
}
