#!/usr/bin/env bash
# Where does a command spend its CPU time? Builds scripts/sigprof.c (an
# LD_PRELOAD SIGPROF sampler) with `cc`, runs the command under it, and
# resolves every sampled frame with `addr2line -f -C -i` (inlined
# functions included), then prints the top functions by self share (the
# innermost frame) and by inclusive share (anywhere on the stack).
#
#   bash scripts/profile.sh [--runs N] [--top N] [--union 'pat;pat']... -- CMD ARGS...
#
# --runs N   run the command N times and pool the samples (default 1).
#            The timer ticks at the kernel's rate (250 Hz on a HZ=250
#            kernel), so a 1 s command gives about 250 samples; aim for
#            at least 1 000, and the script warns below that.
# --top N    rows per table (default 25).
# --union P  the share of samples with any frame whose function name
#            contains any of the ';'-separated substrings of P; may be
#            given more than once.
#
# Symbols need the binary's line tables: the workspace's release profile
# keeps them (`debug = "line-tables-only"`). Example, the one-worker
# sweep:
#
#   cargo build --release -p stp-bench
#   STP_SWEEP_WORKERS=1 bash scripts/profile.sh --runs 4 \
#       --union 'PayloadReader;Payload::push_payload' -- \
#       target/release/stp sweep --len 64
#
# Every process the command starts is sampled (LD_PRELOAD is inherited)
# and pooled. The command's own stdout is discarded; a nonzero exit
# status is reported and does not stop the profile (`stp lint` exits 1
# on its expected findings).
set -euo pipefail

runs=1 top=25
unions=()
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --top) top="$2"; shift 2 ;;
        --union) unions+=("$2"); shift 2 ;;
        --) shift; break ;;
        *) echo "usage: bash scripts/profile.sh [--runs N] [--top N] [--union 'pat;pat']... -- CMD ARGS..." >&2; exit 2 ;;
    esac
done
[ $# -gt 0 ] || { echo "profile: no command given (put it after --)" >&2; exit 2; }
case "$runs" in '' | *[!0-9]* | 0) echo "profile: --runs takes a positive count" >&2; exit 2 ;; esac

work="$(mktemp -d "${TMPDIR:-/tmp}/profile.XXXXXX")"
trap 'rm -rf "$work"' EXIT
cc -O2 -shared -fPIC -o "$work/sigprof.so" "$(dirname "$0")/sigprof.c"

for _ in $(seq 1 "$runs"); do
    status=0
    SIGPROF_OUT="$work/samples" LD_PRELOAD="$work/sigprof.so" "$@" > /dev/null || status=$?
    [ "$status" -eq 0 ] || echo "profile: the command exited $status" >&2
done

python3 - "$work" "$top" "${unions[@]}" <<'EOF'
import collections, glob, os, re, subprocess, sys

work, top, *unions = sys.argv[1:]
top = int(top)

samples = []  # per sample: (object path, file offset) per frame, innermost first
for path in sorted(glob.glob(f"{work}/samples.*")):
    maps = []
    raw = []
    for line in open(path):
        if line.startswith("S"):
            raw.append([int(a, 16) for a in line.split()[1:]])
        elif line.startswith("M "):
            f = line[2:].split(maxsplit=5)
            if len(f) == 6 and f[5].strip().startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, int(f[2], 16), f[5].strip()))
        elif line.startswith("D "):
            print(f"profile: {path}: {line.split()[1]} samples dropped (buffer full)", file=sys.stderr)
    for frames in raw:
        stack = []
        for i, addr in enumerate(frames):
            # A return address points past its call: look up the call.
            pc = addr if i == 0 else addr - 1
            hit = next((m for m in maps if m[0] <= pc < m[1]), None)
            if hit is None:
                stack.append(None)
            else:
                stack.append((hit[3], pc - hit[0] + hit[2]))
        if stack:
            samples.append(stack)

# File offset -> link-time address, through the ELF LOAD segments.
def load_segments(obj):
    out = subprocess.run(["objdump", "-p", obj], capture_output=True, text=True).stdout
    segs = []
    for m in re.finditer(r"LOAD off\s+0x([0-9a-f]+) vaddr 0x([0-9a-f]+).*\n\s+filesz 0x([0-9a-f]+)", out):
        off, vaddr, size = (int(x, 16) for x in m.groups())
        segs.append((off, vaddr, size))
    return segs

wanted = collections.defaultdict(set)
for stack in samples:
    for frame in stack:
        if frame:
            wanted[frame[0]].add(frame[1])

names = {}  # (obj, offset) -> [function names, innermost first]
for obj, offsets in wanted.items():
    if not os.path.exists(obj):
        continue
    segs = load_segments(obj)
    order = sorted(offsets)
    vaddrs = []
    for off in order:
        seg = next((s for s in segs if s[0] <= off < s[0] + s[2]), None)
        vaddrs.append(None if seg is None else off - seg[0] + seg[1])
    query = [v for v in vaddrs if v is not None]
    resolved = {}
    if query:
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", obj],
            input="\n".join(f"{v:#x}" for v in query), capture_output=True, text=True,
        ).stdout.splitlines()
        cur = None
        for line in out:
            if re.fullmatch(r"0x[0-9a-f]+", line):
                cur = int(line, 16)
                resolved[cur] = []
                expect_fn = True
            elif cur is not None:
                if expect_fn:
                    resolved[cur].append(line)
                expect_fn = not expect_fn
    # A shared library without its symbol table resolves to the nearest
    # exported symbol, which may not be the function that ran: say which
    # library it was.
    base = os.path.basename(obj)
    tag = f" [{base}]" if base.startswith("lib") else ""
    for off, v in zip(order, vaddrs):
        fns = [f + tag for f in resolved.get(v, []) if f != "??"]
        names[(obj, off)] = fns or [f"??{tag or ' [' + base + ']'}"]

def function_stack(stack):
    out = []
    for frame in stack:
        out.extend(names.get(frame, ["??"]) if frame else ["??"])
    return out

stacks = [function_stack(s) for s in samples]
n = len(stacks)
print(f"profile: {n} samples from {len(glob.glob(f'{work}/samples.*'))} process(es)")
if n < 1000:
    print("profile: fewer than 1 000 samples; shares are coarse (use --runs)")
if n == 0:
    sys.exit(0)

def short(fn):
    # Drop the generic arguments and the trailing hash of Rust symbols.
    fn = re.sub(r"::h[0-9a-f]{16}$", "", fn)
    return fn if len(fn) <= 110 else fn[:107] + "..."

self_count = collections.Counter(short(s[0]) for s in stacks if s)
incl_count = collections.Counter()
for s in stacks:
    incl_count.update(set(short(f) for f in s))
for title, counts in (("self", self_count), ("inclusive", incl_count)):
    print(f"\n{title}:")
    # A function on every stack (main, the runtime's entry) says nothing.
    rows = [(fn, c) for fn, c in counts.most_common() if c < n][:top]
    for fn, c in rows:
        print(f"  {100 * c / n:5.1f} %  {c:6d}  {fn}")
if unions:
    print()
for spec in unions:
    pats = [p for p in spec.split(";") if p]
    hit = sum(any(p in f for f in s for p in pats) for s in stacks)
    print(f"union '{spec}': {100 * hit / n:.1f} % ({hit} of {n})")
EOF
