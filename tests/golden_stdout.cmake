# Golden-stdout check for a figure bench (a ctest registered by the
# top-level CMakeLists.txt):
#
#   cmake -DBENCH=<bench executable> -DGOLDEN=<golden file>
#         -DTHREADS=<worker count> -P tests/golden_stdout.cmake
#
# Runs BENCH with HIDA_BENCH_THREADS=THREADS and fails unless the SHA-256
# of its stdout equals the SHA-256 of GOLDEN. A bench that exits non-zero
# fails too. With HIDA_UPDATE_GOLDEN set, the run's stdout replaces
# GOLDEN instead (review the diff before committing it).

foreach(var BENCH GOLDEN THREADS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()

set(ENV{HIDA_BENCH_THREADS} "${THREADS}")
execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} (HIDA_BENCH_THREADS=${THREADS}) failed: "
                      "${status}")
endif()

if(DEFINED ENV{HIDA_UPDATE_GOLDEN})
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "rewrote ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing golden file ${GOLDEN} "
                      "(generate with HIDA_UPDATE_GOLDEN=1)")
endif()
file(SHA256 "${GOLDEN}" expected_sha)
string(SHA256 actual_sha "${actual}")
if(NOT actual_sha STREQUAL expected_sha)
  message(FATAL_ERROR
    "${BENCH} stdout drifted at HIDA_BENCH_THREADS=${THREADS}\n"
    "  expected sha256 ${expected_sha} (${GOLDEN})\n"
    "  actual   sha256 ${actual_sha}\n"
    "actual stdout:\n${actual}")
endif()
message(STATUS "stdout sha256 ${actual_sha} matches ${GOLDEN}")
