"""Run the five built-in demonstration cases and print their reports.

Traces and reports land in ./case_output; each report carries one CHECK
line per claim with the measured value and its tolerance.  The cases run
through ``run_cases``, the path ``cascade-droop case all`` takes: dealt
into one share per usable CPU, the first run on this thread and each other
one on a thread of its own, with the same bytes as a run on one CPU.
"""

from cascade_droop.cases import run_cases

if __name__ == "__main__":
    for report in run_cases([1, 2, 3, 4, 5], "case_output"):
        print(report.render())
        print()
