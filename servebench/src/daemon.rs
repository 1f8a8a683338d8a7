//! The daemon under test as a child process: spawn, connect, shut down, and
//! read its CPU time and peak resident set from `/proc`.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pathfinder_serve::{Request, Response, UnixClient};

/// Shard workers the daemon runs.
pub const SHARDS: usize = 2;

/// How long to wait for the daemon to bind, answer, or exit.
const PATIENCE: Duration = Duration::from_secs(30);

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which is
/// 100 on every architecture this runs on.
const USER_HZ: f64 = 100.0;

/// A running `repro serve` process. Dropping it kills and reaps the process
/// if it is still running.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `bin serve --socket <socket> --shards 2`.
    ///
    /// # Errors
    ///
    /// Propagates the spawn failure.
    pub fn spawn(bin: &Path, socket: &Path) -> io::Result<Daemon> {
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(["--shards", &SHARDS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        Ok(Daemon {
            child,
            socket: socket.to_path_buf(),
        })
    }

    /// The daemon's process id.
    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Connects to the daemon, polling every 100 µs until it has bound its
    /// socket.
    ///
    /// # Errors
    ///
    /// Fails if the daemon exits first or does not bind within 30 s.
    pub fn connect(&mut self) -> io::Result<UnixClient> {
        let deadline = Instant::now() + PATIENCE;
        loop {
            match UnixClient::connect(&self.socket) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if let Some(status) = self.child.try_wait()? {
                        return Err(io::Error::other(format!("daemon exited with {status}")));
                    }
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    /// Sends the shutdown `drain` on `client`, waits for the process to
    /// exit, and returns the reply.
    ///
    /// # Errors
    ///
    /// Transport failures, or a daemon that does not exit within 30 s.
    pub fn shutdown(mut self, client: &mut UnixClient) -> io::Result<Response> {
        let reply = client.request(&Request::Drain { stream: None })?;
        let deadline = Instant::now() + PATIENCE;
        while self.child.try_wait()?.is_none() {
            if Instant::now() >= deadline {
                return Err(io::Error::other("daemon did not exit after drain"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(reply)
    }

    /// User plus system CPU seconds the daemon has used so far, all threads.
    ///
    /// # Errors
    ///
    /// Unreadable or unparsable `/proc/<pid>/stat`.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        parse_cpu_ticks(&stat)
            .map(|ticks| ticks as f64 / USER_HZ)
            .ok_or_else(|| io::Error::other("unparsable /proc/<pid>/stat"))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    ///
    /// # Errors
    ///
    /// Unreadable `/proc/<pid>/status` or no `VmHWM` line in it.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        parse_vm_hwm_kib(&status)
            .map(|kib| kib as f64 / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc/<pid>/status"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from its closing parenthesis: `utime` and `stime` are fields 14
/// and 15, the 12th and 13th after it.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM:` value in KiB from a `/proc/<pid>/status` file.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (repro (serve) x) S 1 4242 4242 0 -1 4194560 812 0 0 0 \
                    1234 56 0 0 20 0 5 0 98765 123456789 2048 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(parse_cpu_ticks("4242 (repro) S 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\trepro\nVmPeak:\t  20480 kB\nVmHWM:\t    9216 kB\nVmRSS:\t    8000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(9216));
        assert_eq!(parse_vm_hwm_kib("Name:\trepro\n"), None);
    }

    #[test]
    fn own_process_parses() {
        let pid = std::process::id();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
        assert!(parse_cpu_ticks(&stat).is_some());
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
        assert!(parse_vm_hwm_kib(&status).unwrap() > 0);
    }
}
