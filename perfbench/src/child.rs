//! The `pamad` child process: spawn on an ephemeral port, read the
//! `pamad listening on` handshake, sample its memory, drain it by
//! closing stdin, and kill it on every other path so a failed run
//! leaves no orphan.

use crate::common::proc_status_kb;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long pamad may take to announce itself or to drain.
const PATIENCE: Duration = Duration::from_secs(20);

/// A running pamad. Dropping it kills the process and reaps it.
pub struct Pamad {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

/// The counters of pamad's drain summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drain {
    /// Commands executed.
    pub commands: u64,
    /// Protocol errors answered.
    pub protocol_errors: u64,
}

impl Pamad {
    /// Starts `bin` with `args` (which must bind port 0 or a free port)
    /// and waits for its handshake.
    pub fn spawn(bin: &Path, args: &[&str]) -> Result<Pamad, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(l) = line else { break };
                if tx.send(l).is_err() {
                    break;
                }
            }
        });
        let mut p = Pamad {
            child,
            stdin,
            lines,
            reader: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // On any error below, dropping `p` kills the child.
        let line = p
            .lines
            .recv_timeout(PATIENCE)
            .map_err(|_| "pamad printed no handshake".to_string())?;
        p.addr = line
            .strip_prefix("pamad listening on ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("unexpected pamad handshake {line:?}"))?;
        Ok(p)
    }

    /// The address pamad bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `(VmRSS, VmHWM)` of the process, bytes.
    pub fn memory(&self) -> (u64, u64) {
        let pid = self.child.id().to_string();
        let kb = |f| proc_status_kb(&pid, f).unwrap_or(0) * 1024;
        (kb("VmRSS"), kb("VmHWM"))
    }

    /// Closes stdin, waits for the drain summary and the exit.
    pub fn drain(mut self) -> Result<Drain, String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + PATIENCE;
        let summary = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(l) if l.starts_with("pamad drained:") => break l,
                Ok(_) => {}
                Err(_) => return Err("pamad exited without a drain summary".into()),
            }
        };
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                return Err("pamad did not exit after draining".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        parse_drain(&summary).ok_or_else(|| format!("unparsable drain summary {summary:?}"))
    }
}

impl Drop for Pamad {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// Parses `pamad drained: A conns served, B shed, C commands, D
/// protocol errors, …`.
fn parse_drain(line: &str) -> Option<Drain> {
    let rest = line.strip_prefix("pamad drained: ")?;
    let field = |suffix: &str| -> Option<u64> {
        rest.split(", ").find(|p| p.ends_with(suffix))?.split(' ').next()?.parse().ok()
    };
    Some(Drain { commands: field(" commands")?, protocol_errors: field(" protocol errors")? })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_summary_parses() {
        let line = "pamad drained: 1 conns served, 0 shed, 1234 commands, 0 protocol errors, \
                    5 hits / 6 misses, 7 items resident";
        assert_eq!(parse_drain(line), Some(Drain { commands: 1234, protocol_errors: 0 }));
        assert_eq!(parse_drain("pamad listening on 127.0.0.1:1"), None);
    }
}
