//! Output checks, run after the measured region.
//!
//! Every submitted job must sit in `done/` with a cache entry whose final
//! snapshot is finite and matches its stored checksums; a seeded subset —
//! at least one job per plan × backend shape — must match
//! `jobs::runner::reference_set` bit for bit; every resumed job must have
//! verified bit-exact. A miss is counted as a failed job, never a crash.
//!
//! Cache entries are validated by [`read_entry`], which makes the checks
//! `ResultCache::lookup` makes (label, embedded-spec hash, content
//! checksum, finiteness) but parses the particle arrays itself. `lookup`
//! parses a 16k-body entry through the repository's JSON layer in about
//! 17 s on a two-core machine, so checking an 11-job `sim-tree-16k` run
//! with it took 185 s: longer than the run it checks.

use jobs::cache::ResultCache;
use jobs::runner::reference_set;
use jobs::server::{JobOutcome, JobReport};
use jobs::spec::JobSpec;
use jobs::spool::{JobState, Spool};
use nbody_core::body::ParticleSet;
use nbody_core::vec3::Vec3;
use std::collections::{BTreeMap, BTreeSet};
use workloads::snapshot::content_checksum;

/// One job the benchmark submitted, with how the job path reported it.
#[derive(Debug, Clone)]
pub struct Submitted {
    /// The spec as submitted.
    pub spec: JobSpec,
    /// Spool record id.
    pub id: String,
    /// The job's last report from the scheduler, if it got one.
    pub report: Option<JobReport>,
}

/// The reusable result of checking one spool.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Jobs checked.
    pub checked: u64,
    /// Ids of jobs that failed a check, with the reason.
    pub failed: BTreeMap<String, String>,
    /// Jobs compared bit for bit against a reference run.
    pub reference_runs: u64,
    /// Stored final checksum per canonical hash.
    pub checksums: BTreeMap<String, u64>,
}

/// Final-snapshot checksum of a cache entry, after checking its label and
/// embedded spec against `hash_hex` and recomputing the checksum from the
/// stored particle data. `Err` names what is wrong with the entry.
pub fn read_entry(cache: &ResultCache, hash_hex: &str) -> Result<u64, String> {
    let path = cache.dir().join(format!("{hash_hex}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("unreadable entry: {e}"))?;
    let mut c = Cursor { text: &text, pos: 0 };
    c.seek("\"hash_hex\":\"")?;
    let stored_hash = c.until('"')?;
    if stored_hash != hash_hex {
        return Err(format!("entry labeled {stored_hash}"));
    }
    c.seek("\"spec\":")?;
    let spec_text = c.until_lit(",\"final_snapshot\":")?;
    let spec: JobSpec =
        serde_json::from_str(spec_text).map_err(|e| format!("unparseable spec: {e}"))?;
    if spec.hash_hex() != hash_hex {
        return Err("embedded spec does not hash to the cache key".into());
    }
    c.seek("\"time\":")?;
    let time = c.number()?;
    c.seek("\"pos\":[")?;
    let pos = c.vec3s()?;
    c.seek("\"vel\":[")?;
    let vel = c.vec3s()?;
    c.seek("\"mass\":[")?;
    let mut mass = Vec::with_capacity(pos.len());
    loop {
        mass.push(c.number()?);
        if c.next_char()? == ']' {
            break;
        }
    }
    c.seek("\"checksum\":")?;
    let snap_checksum = c.number_u64()?;
    c.seek("\"result_checksum\":")?;
    let result_checksum = c.number_u64()?;
    if pos.len() != vel.len() || pos.len() != mass.len() {
        return Err("ragged particle arrays".into());
    }
    let set = ParticleSet::from_parts(pos, vel, mass);
    if !set.all_finite() {
        return Err("non-finite final snapshot".into());
    }
    let actual = content_checksum(time, &set);
    if actual != snap_checksum || actual != result_checksum {
        return Err(format!(
            "checksum mismatch: data {actual:#x}, snapshot {snap_checksum:#x}, \
             result {result_checksum:#x}"
        ));
    }
    Ok(actual)
}

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn seek(&mut self, lit: &str) -> Result<(), String> {
        let at = self.text[self.pos..].find(lit).ok_or_else(|| format!("missing {lit}"))?;
        self.pos += at + lit.len();
        Ok(())
    }

    /// The text up to the next `end`, which is consumed.
    fn until(&mut self, end: char) -> Result<&'a str, String> {
        let rest = &self.text[self.pos..];
        let at = rest.find(end).ok_or("truncated entry")?;
        self.pos += at + 1;
        Ok(&rest[..at])
    }

    /// The text up to the next `lit`, which is left unconsumed.
    fn until_lit(&mut self, lit: &str) -> Result<&'a str, String> {
        let rest = &self.text[self.pos..];
        let at = rest.find(lit).ok_or_else(|| format!("missing {lit}"))?;
        self.pos += at;
        Ok(&rest[..at])
    }

    fn next_char(&mut self) -> Result<char, String> {
        let c = self.text[self.pos..].chars().next().ok_or("truncated entry")?;
        self.pos += c.len_utf8();
        Ok(c)
    }

    fn token(&mut self) -> &'a str {
        let rest = &self.text[self.pos..];
        let len = rest.find([',', ']', '}']).unwrap_or(rest.len());
        self.pos += len;
        &rest[..len]
    }

    fn number(&mut self) -> Result<f64, String> {
        let tok = self.token();
        tok.parse::<f64>().map_err(|_| format!("bad number {tok:?}"))
    }

    fn number_u64(&mut self) -> Result<u64, String> {
        let tok = self.token();
        tok.parse::<u64>().map_err(|_| format!("bad checksum {tok:?}"))
    }

    fn vec3s(&mut self) -> Result<Vec<Vec3>, String> {
        let mut out = Vec::new();
        loop {
            self.seek("{\"x\":")?;
            let x = self.number()?;
            self.seek(",\"y\":")?;
            let y = self.number()?;
            self.seek(",\"z\":")?;
            let z = self.number()?;
            self.seek("}")?;
            out.push(Vec3::new(x, y, z));
            if self.next_char()? == ']' {
                return Ok(out);
            }
        }
    }
}

/// Checks every job in `jobs` against the spool they were submitted to.
/// `reference_every_shape` picks the reference subset: the first computed
/// job of each plan × backend shape, plus the jobs whose index in `jobs`
/// the seeded `extra` set names.
pub fn check_spool(spool: &Spool, jobs: &[Submitted], extra: &BTreeSet<usize>) -> Verdict {
    let cache = spool.cache();
    let mut v = Verdict::default();
    let mut shapes_done = BTreeSet::new();
    for (i, job) in jobs.iter().enumerate() {
        v.checked += 1;
        let hash = job.spec.hash_hex();
        if spool.job_state(&job.id) != Some(JobState::Done) {
            v.failed
                .insert(job.id.clone(), format!("not in done/ ({:?})", spool.job_state(&job.id)));
            continue;
        }
        let stored = match v.checksums.get(&hash) {
            Some(&c) => c,
            None => match read_entry(&cache, &hash) {
                Ok(c) => {
                    v.checksums.insert(hash.clone(), c);
                    c
                }
                Err(why) => {
                    v.failed.insert(job.id.clone(), format!("cache entry {hash}: {why}"));
                    continue;
                }
            },
        };
        if let Some(report) = &job.report {
            if report.resumed_from > 0 && report.verified != Some(true) {
                v.failed
                    .insert(job.id.clone(), format!("resumed job verified={:?}", report.verified));
                continue;
            }
        }
        let computed = job.report.as_ref().is_some_and(|r| r.outcome == JobOutcome::Computed);
        let shape = (job.spec.plan.id(), job.spec.backend_kind().id());
        if computed && (shapes_done.insert(shape) || extra.contains(&i)) {
            v.reference_runs += 1;
            let reference = reference_set(&job.spec);
            let expected = content_checksum(job.spec.steps as f64 * job.spec.dt, &reference);
            if expected != stored {
                v.failed.insert(
                    job.id.clone(),
                    format!("final checksum {stored:#x} differs from reference {expected:#x}"),
                );
            }
        }
    }
    v
}
