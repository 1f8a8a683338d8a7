//! Unix-socket transport: the daemon's accept loop and a blocking client.
//!
//! Connections are one thread each, reading length-prefixed
//! [`Request`]/[`Response`] frames with blocking reads through a
//! per-connection `BufReader` (one `read` per small frame) and serving each
//! request inline on the engine until the peer disconnects. Every frame
//! goes out in one `write`. A full drain
//! (`Drain { stream: None }`) ends the daemon: the connection that drained
//! writes its reply, wakes the blocked accept loop with one self-connect,
//! and the loop shuts down the read half of every live connection so idle
//! peers cannot hold the daemon open, then removes the socket file.

use std::io::{self, BufReader};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::ServeEngine;
use crate::protocol::{Request, Response};
use crate::wire::read_frame;

/// How often [`UnixClient::connect_with_retry`] retries a refused connect.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Serves `engine` on a Unix socket at `path` until a full drain completes.
///
/// A stale socket file at `path` is removed before binding (daemons killed
/// hard leave one behind); the file is removed again on clean exit. Returns
/// once a full drain has been served over the socket and every connection
/// thread has finished.
///
/// # Errors
///
/// Propagates bind failures and fatal accept errors.
pub fn serve_unix(engine: Arc<ServeEngine>, path: &Path) -> io::Result<()> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    // Each live connection's thread, plus a handle to shut its reads down.
    let mut connections: Vec<(UnixStream, JoinHandle<()>)> = Vec::new();
    let result = loop {
        let stream = match listener.accept() {
            Ok((stream, _addr)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => break Err(e),
        };
        if engine.is_draining() {
            break Ok(());
        }
        connections.retain(|(_, thread)| !thread.is_finished());
        let Ok(handle) = stream.try_clone() else {
            continue; // out of descriptors: drop this connection, keep serving
        };
        let engine = Arc::clone(&engine);
        let wake = path.to_path_buf();
        let thread = std::thread::spawn(move || {
            // Peer errors end that connection, not the daemon.
            let _ = serve_connection(&engine, &stream);
            // The accept loop's handle keeps the socket open: hang up
            // explicitly so the peer sees EOF now.
            let _ = stream.shutdown(Shutdown::Both);
            if engine.is_draining() {
                // Wake the accept loop so it notices the drain.
                let _ = UnixStream::connect(&wake);
            }
        });
        connections.push((handle, thread));
    };
    // Closing the listener fails any further self-connect at once.
    drop(listener);
    for (handle, _) in &connections {
        let _ = handle.shutdown(Shutdown::Read);
    }
    for (_, thread) in connections {
        let _ = thread.join();
    }
    let _ = std::fs::remove_file(path);
    result
}

/// Serves one connection: frames in, frames out, until clean EOF or until
/// the engine starts draining (the reply that started it is written first).
fn serve_connection(engine: &ServeEngine, mut stream: &UnixStream) -> io::Result<()> {
    let mut requester = engine.requester();
    let mut reader = BufReader::new(stream);
    while let Some(payload) = read_frame(&mut reader)? {
        let response = match Request::decode(&payload) {
            Ok(request) => requester.request(request),
            Err(e) => Response::Error(e.to_string()),
        };
        response.encoder().write_frame(&mut stream)?;
        if engine.is_draining() {
            break;
        }
    }
    Ok(())
}

/// A blocking client for the daemon's Unix socket.
#[derive(Debug)]
pub struct UnixClient {
    /// The connection, read through a buffer; requests are written to
    /// the inner stream directly.
    stream: BufReader<UnixStream>,
    path: PathBuf,
}

impl UnixClient {
    /// Connects to the daemon at `path`, retrying for up to `timeout` while
    /// the socket does not exist or refuses connections (the daemon may
    /// still be starting — the CI smoke launches daemon and clients
    /// back-to-back).
    ///
    /// # Errors
    ///
    /// Returns the last connection error once `timeout` elapses.
    pub fn connect_with_retry(path: &Path, timeout: Duration) -> io::Result<Self> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => {
                    return Ok(UnixClient {
                        stream: BufReader::new(stream),
                        path: path.to_path_buf(),
                    })
                }
                Err(e) => {
                    if std::time::Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
    }

    /// Connects without retries.
    ///
    /// # Errors
    ///
    /// Propagates the connection error.
    pub fn connect(path: &Path) -> io::Result<Self> {
        UnixClient::connect_with_retry(path, Duration::ZERO)
    }

    /// The socket path this client is connected to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Sends one request and waits for its reply.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; a daemon that closed the connection
    /// mid-exchange surfaces as [`io::ErrorKind::UnexpectedEof`].
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        request.encoder().write_frame(&mut self.stream.get_ref())?;
        match read_frame(&mut self.stream)? {
            Some(payload) => Ok(Response::decode(&payload)?),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection before replying",
            )),
        }
    }
}
