#!/usr/bin/env python3
"""Print the payload a crash-tool sweep journal holds for one config.

    python3 tests/golden/journal_payload.py JOURNAL CONFIG > out.txt

JOURNAL is a file written by `--isolate --journal JOURNAL`; CONFIG is
a Table III configuration name (B, SU, IQ, WB, U).  The payload is
printed exactly as the worker sent it: the `ok` record's third field,
percent-unescaped (see journalEscape in src/exp/journal.cc).
"""

import re
import sys


def unescape(token):
    if token == "%":
        return ""
    return re.sub(r"%([0-9a-f]{2})",
                  lambda m: chr(int(m.group(1), 16)), token)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    path, config = sys.argv[1], sys.argv[2]
    with open(path, encoding="latin-1") as journal:
        for line in journal:
            fields = line.split(" ")
            if fields[0] != "ok":
                continue
            payload = unescape(fields[3])
            if re.search(r"^config %s$" % re.escape(config), payload,
                         re.M):
                sys.stdout.write(payload)
                return
    sys.exit("no ok record for config %s in %s" % (config, path))


if __name__ == "__main__":
    main()
