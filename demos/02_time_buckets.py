"""
Bucketing publication dates into periods
========================================

Every document falls into exactly one period per granularity. A period is
its key string, keys of one granularity sort chronologically as plain
strings, and weeks follow the ISO-8601 calendar.
"""

from datetime import date

from chronorank import Granularity, period_of

day = date(1990, 1, 1)

# the same date lands in a different bucket at each granularity
for granularity in Granularity:
    print(granularity.value, "->", period_of(day, granularity))

# ISO weeks can cross year boundaries: 1990-01-01 belongs to week 1 of 1990,
# while 1989-12-31 still belongs to week 52 of 1989
print(period_of(date(1989, 12, 31), Granularity.WEEK))

# sorting the keys puts the buckets of a set of days in chronological order
published = [date(1990, 2, 10), date(1989, 11, 20), date(1990, 1, 7), date(1989, 12, 31)]
for period in sorted({period_of(day, Granularity.MONTH) for day in published}):
    print(period)
