#!/bin/sh
# Checks that the documentation is not lying about the code:
#
#  1. every `--flag` that appears on a `bivc` line in the docs must be
#     handled by tools/bivc.cpp (catches docs advertising dead flags);
#  2. every backtick-quoted repo path under src/ tools/ tests/ bench/ docs/
#     that the docs mention must exist (catches stale references after
#     renames).
#
# Registered as the tier-1 `docs_check` ctest entry; also runnable directly:
#   tools/check_docs.sh
set -u

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$ROOT"
FAIL=0

DOCS="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/LANGUAGE.md"
for D in $DOCS; do
  if [ ! -f "$D" ]; then
    echo "docs_check: missing documentation file $D" >&2
    FAIL=1
  fi
done

# 1. Flags on bivc command lines (only tokens after the word `bivc`, so
# ctest/cmake flags on mixed prose lines don't false-positive) plus the
# README CLI reference table (rows whose first cell is a flag).  A flag is
# "handled" when it appears as a string literal in the driver's parser.
FLAGS=$({
  grep -h 'bivc' $DOCS 2>/dev/null | sed 's/.*bivc//' |
    grep -oE -- '--[a-z][a-z-]*'
  grep -hE '^\| .?-' README.md 2>/dev/null |
    grep -oE -- '--[a-z][a-z-]*'
} | sort -u)
for FLAG in $FLAGS; do
  if ! grep -qF "\"$FLAG" tools/bivc.cpp; then
    echo "docs_check: docs mention bivc flag $FLAG," \
         "which tools/bivc.cpp does not parse" >&2
    FAIL=1
  fi
done

# 2. Backtick-quoted repo paths.  Docs may name build-tree binaries
# (`tools/bivc`, `tests/ivclass`); those count as long as the source that
# produces them exists.  `bench/` stays among the roots although the
# directory is gone, so a leftover mention of a path under it fails here.
PATHS=$(grep -hoE '`[A-Za-z0-9_./-]+`' $DOCS 2>/dev/null | tr -d '\140' |
  grep -E '^(src|tools|tests|bench|docs)/' | sort -u)
for P in $PATHS; do
  if [ ! -e "$P" ] && [ ! -e "$P.cpp" ] && [ ! -e "${P}_test.cpp" ]; then
    echo "docs_check: docs reference missing path $P" >&2
    FAIL=1
  fi
done

# 3. The cache salt the docs document must be the salt the code ships:
# DESIGN.md section 9 states the current AnalysisVersionSalt in bold so
# readers can tell stale cache files apart; a bump that forgets the doc
# (or vice versa) fails here.
CODE_SALT=$(sed -n \
  's/.*AnalysisVersionSalt = \([0-9][0-9]*\);.*/\1/p' \
  src/cache/AnalysisCache.h)
DOC_SALT=$(sed -n \
  's/.*`AnalysisVersionSalt` (currently \*\*\([0-9][0-9]*\)\*\*.*/\1/p' \
  DESIGN.md)
if [ -z "$CODE_SALT" ]; then
  echo "docs_check: cannot find AnalysisVersionSalt in" \
       "src/cache/AnalysisCache.h" >&2
  FAIL=1
elif [ -z "$DOC_SALT" ]; then
  echo "docs_check: DESIGN.md does not document the current" \
       "AnalysisVersionSalt" >&2
  FAIL=1
elif [ "$CODE_SALT" != "$DOC_SALT" ]; then
  echo "docs_check: DESIGN.md documents AnalysisVersionSalt $DOC_SALT" \
       "but src/cache/AnalysisCache.h says $CODE_SALT" >&2
  FAIL=1
fi

# 4. Same contract for the daemon's wire protocol: DESIGN.md section 10
# states the current ProtocolVersion in bold; a wire-visible change that
# bumps the constant but not the doc (or vice versa) fails here.
CODE_PROTO=$(sed -n \
  's/.*ProtocolVersion = \([0-9][0-9]*\);.*/\1/p' \
  src/server/Protocol.h)
DOC_PROTO=$(sed -n \
  's/.*`ProtocolVersion` (currently \*\*\([0-9][0-9]*\)\*\*.*/\1/p' \
  DESIGN.md)
if [ -z "$CODE_PROTO" ]; then
  echo "docs_check: cannot find ProtocolVersion in" \
       "src/server/Protocol.h" >&2
  FAIL=1
elif [ -z "$DOC_PROTO" ]; then
  echo "docs_check: DESIGN.md does not document the current" \
       "ProtocolVersion" >&2
  FAIL=1
elif [ "$CODE_PROTO" != "$DOC_PROTO" ]; then
  echo "docs_check: DESIGN.md documents ProtocolVersion $DOC_PROTO" \
       "but src/server/Protocol.h says $CODE_PROTO" >&2
  FAIL=1
fi

# 5. Same contract for the per-unit allocation ceiling: DESIGN.md
# section 11 states the current MaxHeapAllocsPerUnit in bold, and
# tests/alloc_ceiling_test.cpp fails when the front-half hot path
# exceeds the constant; doc and assertion must move together.
CODE_CEIL=$(sed -n \
  's/.*MaxHeapAllocsPerUnit = \([0-9][0-9]*\);.*/\1/p' \
  tests/alloc_ceiling_test.cpp)
DOC_CEIL=$(sed -n \
  's/.*`MaxHeapAllocsPerUnit` (currently \*\*\([0-9][0-9]*\)\*\*.*/\1/p' \
  DESIGN.md)
if [ -z "$CODE_CEIL" ]; then
  echo "docs_check: cannot find MaxHeapAllocsPerUnit in" \
       "tests/alloc_ceiling_test.cpp" >&2
  FAIL=1
elif [ -z "$DOC_CEIL" ]; then
  echo "docs_check: DESIGN.md does not document the current" \
       "MaxHeapAllocsPerUnit" >&2
  FAIL=1
elif [ "$CODE_CEIL" != "$DOC_CEIL" ]; then
  echo "docs_check: DESIGN.md documents MaxHeapAllocsPerUnit $DOC_CEIL" \
       "but tests/alloc_ceiling_test.cpp says $CODE_CEIL" >&2
  FAIL=1
fi

# 7. The c-finite lattice extension ships with its documentation: as long
# as the classifier defines IVKind::CFinite, DESIGN.md must carry the
# "C-finite lattice extension" section and EXPERIMENTS.md must track the
# punt-rate metric by its real counter name (`ivclass.punt`, declared in
# src/ivclass/Report.cpp).
if grep -q "CFinite" src/ivclass/Classification.h; then
  if ! grep -q "C-finite lattice extension" DESIGN.md; then
    echo "docs_check: classifier has IVKind::CFinite but DESIGN.md lacks" \
         "the 'C-finite lattice extension' section" >&2
    FAIL=1
  fi
  if ! grep -q "ivclass.punt" EXPERIMENTS.md; then
    echo "docs_check: EXPERIMENTS.md does not document the punt-rate" \
         "counter ivclass.punt" >&2
    FAIL=1
  fi
  if ! grep -q '"ivclass.punt"' src/ivclass/Report.cpp; then
    echo "docs_check: EXPERIMENTS.md tracks ivclass.punt but the counter" \
         "is not declared in src/ivclass/Report.cpp" >&2
    FAIL=1
  fi
fi

# 8. Summarizer constants: DESIGN.md section 14 states the conjecture
# bounds in bold; both live in src/ivclass/Summarize.h and must match.
CODE_SUMM_PERIOD=$(sed -n \
  's/.*SummarizeMaxPeriod = \([0-9][0-9]*\);.*/\1/p' \
  src/ivclass/Summarize.h)
DOC_SUMM_PERIOD=$(sed -n \
  's/.*`SummarizeMaxPeriod` (currently \*\*\([0-9][0-9]*\)\*\*.*/\1/p' \
  DESIGN.md)
if [ -z "$CODE_SUMM_PERIOD" ]; then
  echo "docs_check: cannot find SummarizeMaxPeriod in" \
       "src/ivclass/Summarize.h" >&2
  FAIL=1
elif [ -z "$DOC_SUMM_PERIOD" ]; then
  echo "docs_check: DESIGN.md does not document the current" \
       "SummarizeMaxPeriod" >&2
  FAIL=1
elif [ "$CODE_SUMM_PERIOD" != "$DOC_SUMM_PERIOD" ]; then
  echo "docs_check: DESIGN.md documents SummarizeMaxPeriod" \
       "$DOC_SUMM_PERIOD but src/ivclass/Summarize.h says" \
       "$CODE_SUMM_PERIOD" >&2
  FAIL=1
fi
CODE_SUMM_SAMPLES=$(sed -n \
  's/.*SummarizeSampleCount = \([0-9][0-9]*\);.*/\1/p' \
  src/ivclass/Summarize.h)
DOC_SUMM_SAMPLES=$(sed -n \
  's/.*`SummarizeSampleCount` (currently \*\*\([0-9][0-9]*\)\*\*.*/\1/p' \
  DESIGN.md)
if [ -z "$CODE_SUMM_SAMPLES" ]; then
  echo "docs_check: cannot find SummarizeSampleCount in" \
       "src/ivclass/Summarize.h" >&2
  FAIL=1
elif [ -z "$DOC_SUMM_SAMPLES" ]; then
  echo "docs_check: DESIGN.md does not document the current" \
       "SummarizeSampleCount" >&2
  FAIL=1
elif [ "$CODE_SUMM_SAMPLES" != "$DOC_SUMM_SAMPLES" ]; then
  echo "docs_check: DESIGN.md documents SummarizeSampleCount" \
       "$DOC_SUMM_SAMPLES but src/ivclass/Summarize.h says" \
       "$CODE_SUMM_SAMPLES" >&2
  FAIL=1
fi

# 9. The parser's nesting limit: docs/LANGUAGE.md states the current
# MaxNestingDepth in bold; src/frontend/Parser.h ships it, and the
# frontend and server tests probe it at the limit and one past.
CODE_NEST=$(sed -n \
  's/.*MaxNestingDepth = \([0-9][0-9]*\);.*/\1/p' \
  src/frontend/Parser.h)
DOC_NEST=$(sed -n \
  's/.*`MaxNestingDepth` (currently \*\*\([0-9][0-9]*\)\*\*.*/\1/p' \
  docs/LANGUAGE.md)
if [ -z "$CODE_NEST" ]; then
  echo "docs_check: cannot find MaxNestingDepth in" \
       "src/frontend/Parser.h" >&2
  FAIL=1
elif [ -z "$DOC_NEST" ]; then
  echo "docs_check: docs/LANGUAGE.md does not document the current" \
       "MaxNestingDepth" >&2
  FAIL=1
elif [ "$CODE_NEST" != "$DOC_NEST" ]; then
  echo "docs_check: docs/LANGUAGE.md documents MaxNestingDepth" \
       "$DOC_NEST but src/frontend/Parser.h says $CODE_NEST" >&2
  FAIL=1
fi

# 10. Same contract for the back-half allocation ceiling: DESIGN.md
# section 11 states the current MaxAnalysisAllocsPerInstr in bold, and
# tests/alloc_ceiling_test.cpp fails when analysis plus report exceed it
# per IR instruction; doc and assertion must move together.
CODE_BACK=$(sed -n \
  's/.*MaxAnalysisAllocsPerInstr = \([0-9][0-9.]*\);.*/\1/p' \
  tests/alloc_ceiling_test.cpp)
DOC_BACK=$(sed -n \
  's/.*`MaxAnalysisAllocsPerInstr` (currently \*\*\([0-9][0-9.]*\)\*\*.*/\1/p' \
  DESIGN.md)
if [ -z "$CODE_BACK" ]; then
  echo "docs_check: cannot find MaxAnalysisAllocsPerInstr in" \
       "tests/alloc_ceiling_test.cpp" >&2
  FAIL=1
elif [ -z "$DOC_BACK" ]; then
  echo "docs_check: DESIGN.md does not document the current" \
       "MaxAnalysisAllocsPerInstr" >&2
  FAIL=1
elif [ "$CODE_BACK" != "$DOC_BACK" ]; then
  echo "docs_check: DESIGN.md documents MaxAnalysisAllocsPerInstr" \
       "$DOC_BACK but tests/alloc_ceiling_test.cpp says $CODE_BACK" >&2
  FAIL=1
fi

# 11. Same contract for the batch-result memory ceiling: DESIGN.md
# section 11 states the current BatchResultBytesPerUnit in bold, and
# tests/alloc_ceiling_test.cpp fails when a batch result holds more live
# heap per unit; doc and assertion must move together.
CODE_HELD=$(sed -n \
  's/.*BatchResultBytesPerUnit = \([0-9][0-9]*\);.*/\1/p' \
  tests/alloc_ceiling_test.cpp)
DOC_HELD=$(sed -n \
  's/.*`BatchResultBytesPerUnit` (currently \*\*\([0-9][0-9]*\)\*\*.*/\1/p' \
  DESIGN.md)
if [ -z "$CODE_HELD" ]; then
  echo "docs_check: cannot find BatchResultBytesPerUnit in" \
       "tests/alloc_ceiling_test.cpp" >&2
  FAIL=1
elif [ -z "$DOC_HELD" ]; then
  echo "docs_check: DESIGN.md does not document the current" \
       "BatchResultBytesPerUnit" >&2
  FAIL=1
elif [ "$CODE_HELD" != "$DOC_HELD" ]; then
  echo "docs_check: DESIGN.md documents BatchResultBytesPerUnit" \
       "$DOC_HELD but tests/alloc_ceiling_test.cpp says $CODE_HELD" >&2
  FAIL=1
fi

if [ "$FAIL" = 0 ]; then
  echo "docs_check: OK ($(echo "$FLAGS" | wc -w) flags," \
       "$(echo "$PATHS" | wc -w) paths, cache salt $CODE_SALT," \
       "protocol version $CODE_PROTO," \
       "alloc ceilings $CODE_CEIL/$CODE_BACK/$CODE_HELD," \
       "summarizer $CODE_SUMM_PERIOD/$CODE_SUMM_SAMPLES," \
       "nesting limit $CODE_NEST verified)"
fi
exit "$FAIL"
