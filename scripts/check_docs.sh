#!/usr/bin/env bash
# Documentation consistency check, run by CI's lints job.
#
# Broken intra-doc links in rustdoc are already caught by the
# `RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps` step; this
# script covers what rustdoc cannot see: markdown docs referring to
# experiment binaries that do not exist (e.g. a bin was renamed but
# README/docs still advertise the old name).
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

# Every `--bin <name>` in README.md and docs/*.md must be a real binary.
for doc in README.md docs/*.md; do
  for bin in $(grep -oE '\-\-bin [a-z0-9_]+' "$doc" | awk '{print $2}' | sort -u); do
    if ! ls crates/*/src/bin/"$bin".rs >/dev/null 2>&1; then
      echo "ERROR: $doc references missing binary '$bin'"
      status=1
    fi
  done
done

# Every backtick-quoted bench-bin-looking name (bench_*) must exist too
# — these are how the docs' tables name binaries outside full cargo
# commands.
for doc in README.md docs/*.md; do
  for bin in $(grep -oE '`bench_[a-z0-9_]+`' "$doc" | tr -d '`' | sort -u); do
    case "$bin" in
      # Non-binary artifacts that share the prefix.
      bench_report) continue ;;
    esac
    if ! ls crates/*/src/bin/"$bin".rs >/dev/null 2>&1; then
      echo "ERROR: $doc references missing binary '$bin'"
      status=1
    fi
  done
done

# Every backtick-quoted experiment id (figN_*, tableN_*, ablation_*,
# ext_*) must be a row of the reproduction table. The ids are read from the
# generated block of docs/EXPERIMENTS.md, which a crates/bench unit test
# holds byte-equal to `repro docs` — so this follows the table without
# building anything.
experiments=$(sed -n '/<!-- repro-docs:begin -->/,/<!-- repro-docs:end -->/p' \
              docs/EXPERIMENTS.md | grep -oE '^\| `[a-z0-9_]+`' | tr -d '|` ')
if [ -z "$experiments" ]; then
  echo "ERROR: docs/EXPERIMENTS.md has no repro-docs block (regenerate with 'repro docs')"
  status=1
fi
for doc in README.md docs/*.md; do
  for id in $(grep -oE '`(fig[0-9]+|table[0-9]+|ablation|ext)_[a-z0-9_]+`' "$doc" \
              | tr -d '`' | sort -u); do
    if ! grep -qxF "$id" <<<"$experiments"; then
      echo "ERROR: $doc references '$id', which is not a 'repro list' experiment"
      status=1
    fi
  done
done

# Every `baselines/<file>` the docs name must be a committed file.
for doc in README.md docs/*.md; do
  for file in $(grep -oE 'baselines/[A-Za-z0-9_]+\.jsonl?' "$doc" | sort -u); do
    if [ ! -f "$file" ]; then
      echo "ERROR: $doc references '$file', which is not on disk"
      status=1
    fi
  done
done

# Every source path the docs name — a `.rs`, `.toml` or `.sh` file under
# crates/, tests/, examples/, scripts/ or config/ — must exist (files
# move and get deleted; references to them rot silently).
for doc in README.md docs/*.md; do
  for file in $(grep -oE '(crates|tests|examples|scripts|config)/[A-Za-z0-9_./-]+\.(rs|toml|sh)' "$doc" \
                | sort -u); do
    if [ ! -f "$file" ]; then
      echo "ERROR: $doc references '$file', which is not on disk"
      status=1
    fi
  done
done

# The BENCH schema version each doc states must be the one
# crates/harness/src/report.rs stamps (a bump is when it goes stale):
# docs/EXPERIMENTS.md's `schema_version N`, README.md's sample
# `"schema_version": N` and docs/ARCHITECTURE.md's `schema vN`.
schema=$(sed -nE 's/^pub const SCHEMA_VERSION: u64 = ([0-9]+);$/\1/p' crates/harness/src/report.rs)
if [ -z "$schema" ]; then
  echo "ERROR: no SCHEMA_VERSION in crates/harness/src/report.rs"
  status=1
fi
for spelling in 'docs/EXPERIMENTS.md:schema_version [0-9]+' \
                'README.md:"schema_version": [0-9]+' \
                'docs/ARCHITECTURE.md:schema v[0-9]+'; do
  doc=${spelling%%:*}
  pattern=${spelling#*:}
  documented=$(grep -oE "$pattern" "$doc" | grep -oE '[0-9]+$' | sort -u)
  if [ -z "$documented" ]; then
    echo "ERROR: no '$pattern' in $doc"
    status=1
  fi
  for version in $documented; do
    if [ "$version" != "$schema" ]; then
      echo "ERROR: $doc says schema version $version, report.rs stamps $schema"
      status=1
    fi
  done
done

# Every row of docs/PERFORMANCE.md's "Claimed gains" table names, in its
# second column, a workload and an end-to-end metric that BENCHMARK.json
# declares (a claim on anything else was not measured by the benchmark).
declared() {
  sed -n "/^  \"$1\": \\[/,/^  \\]/p" BENCHMARK.json \
    | grep -oE '"name": *"[^"]+"' | sed -E 's/.*"([^"]+)"$/\1/'
}
workloads=$(declared workloads)
end_to_end=$(declared end_to_end)
claims=$(sed -n '/^### Claimed gains/,/^#/p' docs/PERFORMANCE.md \
         | grep -E '^\| [0-9]' | awk -F'|' '{print $3}')
if [ -z "$workloads" ] || [ -z "$end_to_end" ] || [ -z "$claims" ]; then
  echo "ERROR: no workloads / end_to_end in BENCHMARK.json or no rows in docs/PERFORMANCE.md's Claimed gains"
  status=1
fi
while IFS= read -r claim; do
  [ -n "$claim" ] || continue
  names=$(grep -oE '`[^`]+`' <<<"$claim" | tr -d '`')
  workload=$(sed -n 1p <<<"$names")
  metric=$(sed -n 2p <<<"$names")
  if ! grep -qxF -- "$workload" <<<"$workloads"; then
    echo "ERROR: docs/PERFORMANCE.md claims a gain on '$workload', which BENCHMARK.json does not declare as a workload"
    status=1
  fi
  if ! grep -qxF -- "$metric" <<<"$end_to_end"; then
    echo "ERROR: docs/PERFORMANCE.md claims a gain in '$metric', which BENCHMARK.json does not declare as an end-to-end metric"
    status=1
  fi
done <<<"$claims"

# Every binary must be documented somewhere (docs stay complete as bins
# are added).
for path in crates/*/src/bin/*.rs; do
  bin=$(basename "$path" .rs)
  if ! grep -qr -- "$bin" README.md docs/; then
    echo "ERROR: binary '$bin' is not mentioned in README.md or docs/"
    status=1
  fi
done

# Every integration suite must be named in README.md's suite list.
for path in tests/*.rs; do
  suite=$(basename "$path" .rs)
  if ! grep -qF "\`$suite\`" README.md; then
    echo "ERROR: integration suite '$suite' is not named in README.md"
    status=1
  fi
done

# Every experiment binary must have its own table row in
# docs/EXPERIMENTS.md (a line starting "| `<bin>`"), so the bin↔metric
# mapping there stays exhaustive — a passing mention elsewhere is not
# enough.
for path in crates/bench/src/bin/*.rs; do
  bin=$(basename "$path" .rs)
  if ! grep -qE "^\| \`$bin\`" docs/EXPERIMENTS.md; then
    echo "ERROR: binary '$bin' has no table row in docs/EXPERIMENTS.md"
    status=1
  fi
done

# Every shipped scenario file must have its row in docs/EXPERIMENTS.md's
# scenario-library table (a line starting "| `<file>.toml`"), so the
# library stays documented as scenarios are added.
for path in config/scenarios/*.toml; do
  file=$(basename "$path")
  if ! grep -qE "^\| \`$file\`" docs/EXPERIMENTS.md; then
    echo "ERROR: scenario '$path' has no table row in docs/EXPERIMENTS.md"
    status=1
  fi
done

# The lint rule table in docs/ARCHITECTURE.md (between the
# lint-rule-table markers) must list exactly the rule ids the linter
# registers in crates/lint/src/lib.rs — both directions.
lint_src=crates/lint/src/lib.rs
table=$(sed -n '/<!-- lint-rule-table:begin -->/,/<!-- lint-rule-table:end -->/p' \
        docs/ARCHITECTURE.md)
for id in $(grep -oE 'id: "[a-z-]+"' "$lint_src" | cut -d'"' -f2 | sort -u); do
  if ! grep -qE "^\| \`$id\`" <<<"$table"; then
    echo "ERROR: lint rule '$id' has no row in docs/ARCHITECTURE.md's rule table"
    status=1
  fi
done
for id in $(grep -oE '^\| `[a-z-]+`' <<<"$table" | tr -d '|` ' | sort -u); do
  if ! grep -qE "id: \"$id\"" "$lint_src"; then
    echo "ERROR: docs/ARCHITECTURE.md documents unknown lint rule '$id'"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_docs: OK — all documented binaries exist and all binaries are documented"
fi
exit "$status"
