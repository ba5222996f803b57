# Sourced by the serve-smoke CI steps (`. ci/start-server.sh`).
#
# `start_server SOCKET CMD...` runs CMD, a server that listens on the
# Unix socket SOCKET, in the background of the calling shell (so the
# step's `wait` waits for it), sets $server to its pid, and returns once
# SOCKET exists. A stale SOCKET is removed first, so only the new
# server's bind can make it appear. It fails if the server exits first,
# or if SOCKET does not appear within the deadline, which is generous
# because some steps compile the server inside `cargo run`.
start_server() {
  local sock=$1 deadline
  shift
  rm -f "$sock"
  "$@" &
  server=$!
  deadline=$(($(date +%s) + 900))
  while [ ! -S "$sock" ]; do
    if ! kill -0 "$server" 2>/dev/null; then
      echo "::error::server exited before it listened on $sock"
      return 1
    fi
    if [ "$(date +%s)" -ge "$deadline" ]; then
      echo "::error::server did not listen on $sock within 900 s"
      kill "$server"
      return 1
    fi
    sleep 0.1
  done
}
