//! Bakes the build's provenance into the binary: the rustc version, the
//! cargo profile, the git commit (when built inside a git checkout) and a
//! digest of every measured source file (which identifies the code even in a
//! checkout without git metadata).

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let repo = manifest.parent().expect("the benchmark lives inside the repository").to_path_buf();

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version = command_output(Command::new(rustc).arg("-V"), &repo);
    let commit = command_output(Command::new("git").args(["rev-parse", "HEAD"]), &repo);
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());

    let mut files = Vec::new();
    for dir in [repo.join("crates"), manifest.join("src")] {
        collect_sources(&dir, &mut files);
        println!("cargo:rerun-if-changed={}", dir.display());
    }
    files.push(repo.join("Cargo.toml"));
    files.sort();
    let mut digest = Fnv::new();
    for file in &files {
        digest.write(file.strip_prefix(&repo).unwrap_or(file).to_string_lossy().as_bytes());
        digest.write(&std::fs::read(file).unwrap_or_default());
    }
    let git_head = repo.join(".git").join("HEAD");
    if git_head.exists() {
        println!("cargo:rerun-if-changed={}", git_head.display());
    }

    println!("cargo:rustc-env=E2EBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=E2EBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=E2EBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=E2EBENCH_SOURCE_DIGEST={:016x}", digest.finish());
}

/// First line of a command's stdout, or `unknown` when it cannot run.
fn command_output(command: &mut Command, dir: &Path) -> String {
    command
        .current_dir(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::trim).map(str::to_string))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every `.rs` and `Cargo.toml` file under `dir`, skipping build outputs.
fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" {
                collect_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
