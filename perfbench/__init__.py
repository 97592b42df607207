"""The repo's end-to-end benchmark; see README.md and ``python3 -m perfbench -h``."""
