"""Run the five built-in demonstration cases and print their reports.

Traces and reports land in ./case_output; each report carries one CHECK
line per claim with the measured value and its tolerance.  The cases run
through ``run_cases``, the path ``cascade-droop case all`` takes: in up to
five worker processes, one per CPU, with the same bytes as a serial run.
"""

from cascade_droop.cases import run_cases

# Worker processes started by "spawn" import this file again; the guard keeps
# them from running the cases themselves.
if __name__ == "__main__":
    for report in run_cases([1, 2, 3, 4, 5], "case_output"):
        print(report.render())
        print()
