//! Trace-driven kernels: FGTR traces as drop-in [`KernelDesc`] sources.
//!
//! The replayer turns a [`trace::KernelTrace`] back into the exact
//! [`KernelDesc`] it was captured from, so a traced kernel slots into every
//! existing consumer of the synthetic models unchanged — golden scenarios,
//! experiment sweeps, fleet tenants. A [`TraceLibrary`] mirrors the
//! [`crate::parboil`] API (`names` / `by_name` / `all`-style lookups) over
//! a directory of `.fgtr` files, e.g. the committed corpus under
//! `tests/golden/validate/`.

use std::path::{Path, PathBuf};

use gpu_sim::KernelDesc;
use trace::{KernelTrace, TraceError};

/// Rebuilds the traced kernel (the identity `capture ∘ replay = id`,
/// asserted bit-for-bit by `tests/trace_replay.rs`).
#[must_use]
pub fn kernel(kt: &KernelTrace) -> KernelDesc {
    kt.kernel()
}

/// A directory of FGTR traces, loaded eagerly and indexed by kernel name —
/// the trace-driven counterpart of [`crate::parboil`].
#[derive(Debug, Clone)]
pub struct TraceLibrary {
    /// Traces sorted by kernel name.
    traces: Vec<KernelTrace>,
}

impl TraceLibrary {
    /// Loads every `*.fgtr` file under `dir` (sorted by file name, so the
    /// library order is stable across platforms).
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the directory is unreadable, otherwise the
    /// first file that fails the strict reader.
    pub fn load_dir(dir: &Path) -> Result<Self, TraceError> {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| TraceError::Io(format!("cannot read {}: {e}", dir.display())))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "fgtr"))
            .collect();
        paths.sort();
        let mut traces = Vec::with_capacity(paths.len());
        for path in &paths {
            traces.push(trace::load(path)?);
        }
        traces.sort_by(|a, b| a.meta.name.cmp(&b.meta.name));
        Ok(TraceLibrary { traces })
    }

    /// Kernel names in library order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.traces.iter().map(|t| t.meta.name.as_str()).collect()
    }

    /// The loaded traces, sorted by kernel name.
    #[must_use]
    pub fn traces(&self) -> &[KernelTrace] {
        &self.traces
    }

    /// Number of traces in the library.
    #[must_use]
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the library holds no traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Rebuilds the named kernel, mirroring [`crate::by_name`].
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<KernelDesc> {
        self.traces.iter().find(|t| t.meta.name == name).map(KernelTrace::kernel)
    }

    /// Rebuilds every kernel, mirroring [`crate::all`].
    #[must_use]
    pub fn all(&self) -> Vec<KernelDesc> {
        self.traces.iter().map(KernelTrace::kernel).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fgtr-replay-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn library_round_trips_captured_parboil_kernels() {
        let dir = temp_dir("lib");
        let names = ["sgemm", "lbm"];
        for name in names {
            let desc = crate::by_name(name).expect("known");
            let kt = trace::capture(&desc, &GpuConfig::tiny(), trace::DEFAULT_CAPTURE_CYCLES)
                .expect("capture");
            trace::save_atomic(&dir.join(format!("{name}.fgtr")), &kt).expect("save");
        }
        let lib = TraceLibrary::load_dir(&dir).expect("load");
        assert_eq!(lib.names(), vec!["lbm", "sgemm"], "sorted by kernel name");
        assert_eq!(lib.len(), 2);
        assert!(!lib.is_empty());
        for name in names {
            let replayed = lib.by_name(name).expect("present");
            assert_eq!(replayed, crate::by_name(name).expect("known"), "replay is exact");
        }
        assert!(lib.by_name("nope").is_none());
        assert_eq!(lib.all().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_dir_propagates_strict_reader_errors() {
        let dir = temp_dir("bad");
        std::fs::write(dir.join("junk.fgtr"), b"not a trace at all").expect("write");
        assert!(TraceLibrary::load_dir(&dir).is_err());
        assert!(matches!(TraceLibrary::load_dir(&dir.join("missing")), Err(TraceError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
