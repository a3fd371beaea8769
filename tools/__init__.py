"""Development tools that check the repository; not part of ``repro``."""
