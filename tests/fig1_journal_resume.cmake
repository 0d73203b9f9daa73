# End-to-end checkpoint resume of bench_fig1_lenet_dse (a ctest
# registered by the top-level CMakeLists.txt):
#
#   cmake -DBENCH=<bench_fig1_lenet_dse> -DWORKDIR=<scratch dir>
#         -P tests/fig1_journal_resume.cmake
#
# 1. Runs the bench uninterrupted at HIDA_BENCH_THREADS=4: the reference.
# 2. Runs it on one worker with HIDA_SWEEP_JOURNAL=<WORKDIR>/fig1 and a
#    short HIDA_SWEEP_DEADLINE_MS, so the (mode, batch) sweeps stop early
#    and leave their checkpoints behind.
# 3. Resumes at HIDA_BENCH_THREADS=4 with the same prefix and no
#    deadline, so four workers insert and flush into each checkpoint.
# Fails unless the resumed stdout is byte-identical to the reference and
# the resumed stderr reports more than 0 points restored from journal.

foreach(var BENCH WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "fig1_journal_resume.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(ENV{HIDA_BENCH_THREADS} 4)
unset(ENV{HIDA_SWEEP_JOURNAL})
unset(ENV{HIDA_SWEEP_DEADLINE_MS})

# run_bench(<label> <stdout var> <stderr var>): run BENCH, fail on a
# non-zero exit.
function(run_bench label out_var err_var)
  execute_process(COMMAND "${BENCH}"
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${label} run of ${BENCH} failed: ${status}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

run_bench("uninterrupted" reference reference_err)

set(ENV{HIDA_SWEEP_JOURNAL} "${WORKDIR}/fig1")
set(ENV{HIDA_SWEEP_DEADLINE_MS} 50)
set(ENV{HIDA_BENCH_THREADS} 1)
run_bench("deadline-limited" interrupted interrupted_err)
if(interrupted_err MATCHES "stopped before completion")
  message(STATUS "deadline-limited run stopped before completion")
else()
  message(STATUS "deadline-limited run completed every sweep in time")
endif()

unset(ENV{HIDA_SWEEP_DEADLINE_MS})
set(ENV{HIDA_BENCH_THREADS} 4)
run_bench("resumed" resumed resumed_err)

if(NOT resumed_err MATCHES "([0-9]+) restored from journal")
  message(FATAL_ERROR "resumed run reported no restore count:\n"
                      "${resumed_err}")
endif()
set(restored "${CMAKE_MATCH_1}")
if(restored EQUAL 0)
  message(FATAL_ERROR "resumed run restored 0 points:\n${resumed_err}")
endif()

string(SHA256 reference_sha "${reference}")
string(SHA256 resumed_sha "${resumed}")
if(NOT resumed_sha STREQUAL reference_sha)
  message(FATAL_ERROR
    "resumed stdout differs from the uninterrupted run\n"
    "  uninterrupted sha256 ${reference_sha}\n"
    "  resumed       sha256 ${resumed_sha}\n"
    "resumed stdout:\n${resumed}")
endif()
message(STATUS "resumed run restored ${restored} points; stdout sha256 "
               "${resumed_sha} matches the uninterrupted run")
file(REMOVE_RECURSE "${WORKDIR}")
