#!/usr/bin/env bash
# Regenerate every figure/table of the paper plus the extension
# experiments into results/ (CSV + SVG + REPORT.md). Run from the
# repository root.
set -euo pipefail
cargo build --release -p stp-bench --bin repro
target/release/repro all
