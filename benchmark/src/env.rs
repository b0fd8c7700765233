//! The benchmark's surroundings: where the repo is, building the CLI under
//! test, the release-profile parity check, the per-run scratch directory and
//! the machine fingerprint.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Json;

/// The repo root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in a directory of the repo")
        .to_path_buf()
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
pub fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    let mut table = BTreeMap::new();
    let mut inside = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if inside {
            if let Some((k, v)) = line.split_once('=') {
                table.insert(k.trim().to_string(), v.trim().to_string());
            }
        }
    }
    table
}

/// Refuse to run unless the benchmark and the CLI are compiled alike: the
/// in-process and the child-process numbers must measure the same codegen.
pub fn check_profile_parity(root: &Path) -> Result<(), String> {
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()));
    let ours = release_profile(&read(root.join("benchmark/Cargo.toml"))?);
    let theirs = release_profile(&read(root.join("Cargo.toml"))?);
    if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] differs: benchmark/Cargo.toml has {ours:?}, the root Cargo.toml has {theirs:?}; copy the root's table into benchmark/Cargo.toml"
        ))
    }
}

/// Build `apsp` with the repo's own release profile and return its path. It
/// lands in `CARGO_TARGET_DIR` when that is set, else in the root's `target/`.
pub fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let target_dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| format!("current dir: {e}"))?
            .join(dir),
        None => root.join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    // cargo's chatter goes to our stderr: stdout is kept for results
    let status = Command::new(&cargo)
        .args(["build", "--release", "--quiet", "-p", "apsp-cli"])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run {cargo:?}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`cargo build --release -p apsp-cli` in {} failed: {status}",
            root.display()
        ));
    }
    let apsp = target_dir.join("release").join("apsp");
    if apsp.is_file() {
        Ok(apsp)
    } else {
        Err(format!("the build left no {}", apsp.display()))
    }
}

/// A scratch directory inside the checkout for one run's inputs and outputs,
/// removed when the run ends.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(root: &Path) -> Result<RunDir, String> {
        let dir = root
            .join("benchmark/out")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

/// What a reader needs to judge whether two result files are comparable.
pub fn fingerprint(root: &Path, isa: String, pin: &crate::child::Pin) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let unknown = || "unknown".to_string();
    Json::obj([
        ("cpu_model", Json::Str(cpu)),
        ("nproc", Json::Num(pin.allowed_cpus() as f64)),
        ("pinned_to_cpu", Json::Num(pin.cpu as f64)),
        ("isa", Json::Str(isa)),
        (
            "rustc",
            Json::Str(
                first_line_of(Command::new("rustc").arg("--version")).unwrap_or_else(unknown),
            ),
        ),
        (
            "git_commit",
            Json::Str(
                first_line_of(
                    Command::new("git")
                        .arg("-C")
                        .arg(root)
                        .args(["rev-parse", "HEAD"]),
                )
                .unwrap_or_else(unknown),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_reads_only_its_own_table() {
        let manifest = "[package]\nname = \"x\"\ndebug = false\n\n[profile.release]\ndebug = true # symbols\nlto = \"thin\"\n\n[profile.bench]\ndebug = 2\n";
        let table = release_profile(manifest);
        assert_eq!(table.len(), 2);
        assert_eq!(table["debug"], "true");
        assert_eq!(table["lto"], "\"thin\"");
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn this_repo_has_matching_profiles_and_a_differing_copy_is_refused() {
        let root = repo_root();
        check_profile_parity(&root).expect("benchmark/Cargo.toml mirrors the root profile");
        let fake = root
            .join("benchmark/out")
            .join(format!("parity-test-{}", std::process::id()));
        std::fs::create_dir_all(fake.join("benchmark")).unwrap();
        std::fs::write(
            fake.join("Cargo.toml"),
            "[profile.release]\ndebug = true\nlto = \"thin\"\n",
        )
        .unwrap();
        std::fs::write(
            fake.join("benchmark/Cargo.toml"),
            "[profile.release]\ndebug = true\nlto = \"fat\"\n",
        )
        .unwrap();
        let err = check_profile_parity(&fake).unwrap_err();
        assert!(err.contains("differs") && err.contains("fat"), "{err}");
        std::fs::remove_dir_all(&fake).ok();
    }
}
