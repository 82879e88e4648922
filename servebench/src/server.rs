//! The `aide serve` child process and the client side of its TCP framing.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a client waits for one response before counting a timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Builds the server binary from the checkout's sources (a no-op when it
/// is current) and returns its path.
pub fn build_server() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "aide",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building `aide` failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let bin = PathBuf::from(target).join("release").join("aide");
    if !bin.is_file() {
        return Err(format!("no server binary at {}", bin.display()));
    }
    Ok(bin)
}

/// A running `aide serve`; killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `aide serve` on an ephemeral loopback port and waits for the
    /// hello frame on a first connection. Returns the server, that
    /// connection and the set-up time: spawn to hello. The `listening on`
    /// line is not the end of set-up: the server prints it before it
    /// builds the grid index, and sends the hello only after.
    pub fn boot(bin: &Path, view: &Path) -> Result<(Server, Conn, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--view")
            .arg(view)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("aide serve exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.trim().strip_prefix("listening on ") {
                match rest.parse::<SocketAddr>() {
                    Ok(addr) => break addr,
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("bad listen address {rest:?}: {e}"));
                    }
                }
            }
        };
        let server = Server {
            child,
            _stdout: stdout,
            addr,
        };
        let conn = Conn::connect(addr)?;
        let setup = start.elapsed();
        Ok((server, conn, setup))
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends one request frame and returns the response frame.
pub trait Transport {
    fn call(&mut self, frame: &str) -> Result<String, String>;
}

/// One client connection: newline-delimited JSON, answered in order.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
    /// The hello frame the server sent on accept.
    pub hello: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|_| stream.set_read_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
            out: Vec::new(),
            line: String::new(),
            hello: String::new(),
        };
        conn.hello = conn.read_frame()?;
        Ok(conn)
    }

    fn read_frame(&mut self) -> Result<String, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) if self.line.ends_with('\n') => {
                self.line.pop();
                Ok(std::mem::take(&mut self.line))
            }
            Ok(_) => Err("connection closed mid-frame".into()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

impl Transport for Conn {
    fn call(&mut self, frame: &str) -> Result<String, String> {
        self.out.clear();
        self.out.extend_from_slice(frame.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("write: {e}"))?;
        self.read_frame()
    }
}
